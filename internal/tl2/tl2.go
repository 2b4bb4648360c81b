package tl2

import (
	"sort"

	"semstm/internal/core"
)

// heldLock records an orec locked at commit time together with its pre-lock
// word, so an aborting commit can restore it.
type heldLock struct {
	o    *orec
	prev uint64
}

// Tx is one TL2 / S-TL2 transaction descriptor, reused across attempts.
type Tx struct {
	g            *Global
	noExtend     bool
	id           uint64 // unique per attempt; owner stamp for locked orecs
	startVersion uint64
	reads        []*orec      // read-set: orecs of classical reads
	compares     *core.SemSet // compare-set: semantic facts (S-TL2 only)
	writes       *core.WriteSet
	fp           *core.FaultPlan // nil unless fault injection is armed
	held         []heldLock
	wv           uint64      // write version reserved by a two-phase Validate
	lockIdx      []int       // scratch: orec indices to lock, reused across commits
	waiter       core.Waiter // adaptive spin-then-yield backoff for locked orecs
	stats        core.TxStats
	readShrink   core.Shrinker // high-water-mark clamp for the read-set
	commitShrink core.Shrinker // same policy for the commit scratch (held/lockIdx)
	// slot publishes the start version to privatizing committers; lastW is
	// the write version of the last successful commit — the quiescence
	// point PrivatizeBarrier drains to.
	slot  *core.ReaderSlot
	lastW uint64
}

// readSetMinCap is the pre-sized (and clamp floor) capacity of the read-set.
const readSetMinCap = 32

// NewTx returns an S-TL2 transaction descriptor bound to g (baseline TL2 is
// the same descriptor behind the facade's core.Baseline delegation).
func NewTx(g *Global) *Tx {
	return &Tx{
		g:        g,
		reads:    make([]*orec, 0, readSetMinCap),
		compares: core.NewSemSet(),
		writes:   core.NewWriteSet(),
		slot:     g.readers.NewSlot(),
	}
}

// Start begins a new attempt (Algorithm 7 lines 1–3): snapshot the global
// version clock as the start version and draw a fresh attempt id. The
// descriptor-local slices retain capacity across attempts (zero-allocation
// steady state) under the core high-water-mark shrink policy: the read-set
// and the commit scratch are clamped back near their recent peak after
// ShrinkAfter consecutive small attempts.
func (tx *Tx) Start() {
	if peak, ok := tx.readShrink.Note(len(tx.reads), cap(tx.reads)); ok {
		tx.reads = make([]*orec, 0, core.ShrinkCap(peak, readSetMinCap))
	} else {
		tx.reads = tx.reads[:0]
	}
	tx.compares.Reset()
	tx.writes.Reset()
	// held is empty here on every path (write-back and Cleanup both truncate
	// it); lockIdx still holds the previous commit's lock list, which is the
	// usage signal for the commit-scratch clamp.
	if peak, ok := tx.commitShrink.Note(len(tx.lockIdx), cap(tx.lockIdx)); ok {
		tx.lockIdx = make([]int, 0, core.ShrinkCap(peak, 0))
		tx.held = nil
	} else {
		tx.held = tx.held[:0]
	}
	tx.stats.Reset()
	tx.id = tx.g.txid.Add(1)
	// Pin-then-recheck: publish the reader slot before trusting the start
	// version. Without the recheck a privatizing committer could advance the
	// clock and scan the reader table between our clock load and the pin —
	// and a TL2 zombie that captured a pre-unlink pointer is invisible to
	// orec validation when it dereferences into cells the privatizer never
	// wrote. A failed recheck re-pins at the newer clock value; the window
	// between load and pin is a couple of loads, so repeated failures need a
	// commit to land inside it every time.
	for {
		s := tx.g.clock.Load()
		tx.slot.Pin(s)
		if tx.g.clock.Load() == s {
			tx.startVersion = s
			break
		}
	}
	if tx.fp != nil {
		tx.fp.Step(core.SiteStart)
	}
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) { tx.fp = p }

// readConsistent performs the TL2 consistent-read protocol on v and appends
// its orec to the read-set (Algorithm 7 lines 40–49): sample the orec, read
// the value, re-sample, and abort on any lock or version movement beyond the
// start version.
func (tx *Tx) readConsistent(v *core.Var) int64 {
	o := tx.g.orecFor(v)
	w1 := o.word.Load()
	if locked(w1) {
		core.AbortWith(core.ReasonOrecLocked)
	}
	val := v.Load()
	w2 := o.word.Load()
	if w1 != w2 || version(w1) > tx.startVersion {
		core.AbortWith(core.ReasonValidation)
	}
	tx.reads = append(tx.reads, o)
	return val
}

// raw resolves a read-after-write against write-set entry e. A pending
// increment is promoted exactly as in S-NOrec, except that the read part uses
// the TL2 consistent-read protocol and therefore lands in the read-set —
// moving the transaction to phase 2.
func (tx *Tx) raw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readConsistent(v)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// Read implements the classical TM_READ barrier (Algorithm 7 lines 37–50).
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	if tx.fp != nil {
		tx.fp.Step(core.SiteRead)
	}
	if e := tx.writes.Get(v); e != nil {
		return tx.raw(v, e)
	}
	return tx.readConsistent(v)
}

// Write implements the classical TM_WRITE barrier (buffered, as in TL2).
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	tx.writes.PutWrite(v, val)
}

// Cmp implements the semantic conditional of Algorithm 7 (lines 4–36). In
// phase 1 — before the first classical read — the comparison may observe a
// version newer than the start version; the compare-set is then revalidated
// under a stable clock and the start version is extended. In phase 2 the
// comparison must stay consistent with prior reads and follows the classical
// TL2 version checks, but the fact still lands in the compare-set so that
// commit-time validation is semantic.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	tx.stats.Compares++
	if tx.fp != nil {
		tx.fp.Step(core.SiteCmp)
	}
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.raw(v, e), operand)
	}
	o := tx.g.orecFor(v)
	if len(tx.reads) == 0 {
		return tx.cmpPhase1(v, o, op, operand)
	}
	return tx.cmpPhase2(v, o, op, operand)
}

// cmpPhase1 handles a semantic conditional before any classical read
// (Algorithm 7 lines 10–25).
func (tx *Tx) cmpPhase1(v *core.Var, o *orec, op core.Op, operand int64) bool {
	var val int64
	var w1 uint64
	tx.waiter.Reset()
	for {
		w1 = o.word.Load()
		if locked(w1) && o.owner.Load() != tx.id {
			tx.stats.SpinWaits++
			if tx.waiter.Wait() > waitBound { // line 12: wait until unlocked
				core.AbortWith(core.ReasonOrecLocked)
			}
			continue
		}
		val = v.Load()
		w2 := o.word.Load()
		if w1 != w2 {
			tx.stats.SpinWaits++
			if tx.waiter.Wait() > waitBound { // line 16: retry read
				core.AbortWith(core.ReasonOrecLocked)
			}
			continue
		}
		break
	}
	result := op.Eval(val, operand)
	tx.compares.AppendOutcome(v, op, operand, result)
	if version(w1) > tx.startVersion {
		if tx.noExtend {
			core.AbortWith(core.ReasonValidation) // ablation: behave like phase 2 from the start
		}
		for {
			time := tx.g.clock.Load()
			tx.validateCompareSet()
			if time == tx.g.clock.Load() {
				tx.startVersion = time // line 25: extend start version
				// Forward pin movement (no recheck needed: we stayed pinned
				// at the old version throughout the extension).
				tx.slot.Pin(time)
				break
			}
			// line 23: a concurrent commit moved the clock; retry.
		}
	}
	return result
}

// cmpPhase2 handles a semantic conditional after the first classical read
// (Algorithm 7 lines 26–35): the start version can no longer be extended, so
// the read of the operand must pass the classical TL2 checks.
func (tx *Tx) cmpPhase2(v *core.Var, o *orec, op core.Op, operand int64) bool {
	w1 := o.word.Load()
	if locked(w1) && o.owner.Load() != tx.id {
		core.AbortWith(core.ReasonOrecLocked)
	}
	val := v.Load()
	w2 := o.word.Load()
	if version(w1) > tx.startVersion || w1 != w2 {
		core.AbortWith(core.ReasonValidation)
	}
	result := op.Eval(val, operand)
	tx.compares.AppendOutcome(v, op, operand, result)
	return result
}

// CmpVars implements the address–address conditional (_ITM_S2R). With clean
// operands S-TL2 records a single two-address fact in the compare-set; the
// consistent-pair read follows the same phase rules as Cmp, sampling both
// orecs around the loads. Operands with buffered writes fall back to the
// address–value machinery.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	// One indexed lookup per operand (see the WriteSet Bloom fast path).
	if eb := tx.writes.Get(b); eb != nil || tx.writes.Get(a) != nil {
		var operand int64
		if eb != nil {
			operand = tx.raw(b, eb)
		} else {
			tx.stats.Reads++
			operand = tx.readConsistent(b)
		}
		return tx.Cmp(a, op, operand)
	}
	tx.stats.Compares++
	oa, ob := tx.g.orecFor(a), tx.g.orecFor(b)
	if len(tx.reads) == 0 {
		return tx.cmpVarsPhase1(a, b, oa, ob, op)
	}
	return tx.cmpVarsPhase2(a, b, oa, ob, op)
}

// cmpVarsPhase1 performs the two-address comparison before any classical
// read, extending the start version through compare-set revalidation when
// either orec is newer than the snapshot.
func (tx *Tx) cmpVarsPhase1(a, b *core.Var, oa, ob *orec, op core.Op) bool {
	var va, vb int64
	var wa, wb uint64
	tx.waiter.Reset()
	for {
		wa = oa.word.Load()
		wb = ob.word.Load()
		if (locked(wa) && oa.owner.Load() != tx.id) ||
			(locked(wb) && ob.owner.Load() != tx.id) {
			tx.stats.SpinWaits++
			if tx.waiter.Wait() > waitBound { // wait until unlocked
				core.AbortWith(core.ReasonOrecLocked)
			}
			continue
		}
		va, vb = a.Load(), b.Load()
		if oa.word.Load() != wa || ob.word.Load() != wb {
			tx.stats.SpinWaits++
			if tx.waiter.Wait() > waitBound { // retry the pair read
				core.AbortWith(core.ReasonOrecLocked)
			}
			continue
		}
		break
	}
	result := op.Eval(va, vb)
	tx.compares.AppendOutcomeVar(a, op, b, result)
	if version(wa) > tx.startVersion || version(wb) > tx.startVersion {
		if tx.noExtend {
			core.AbortWith(core.ReasonValidation) // ablation: phase-1 extension disabled
		}
		for {
			time := tx.g.clock.Load()
			tx.validateCompareSet()
			if time == tx.g.clock.Load() {
				tx.startVersion = time
				tx.slot.Pin(time) // forward pin movement, as in cmpPhase1
				break
			}
		}
	}
	return result
}

// cmpVarsPhase2 performs the two-address comparison after the first
// classical read: both orecs must be consistent with the frozen snapshot.
func (tx *Tx) cmpVarsPhase2(a, b *core.Var, oa, ob *orec, op core.Op) bool {
	wa := oa.word.Load()
	wb := ob.word.Load()
	if (locked(wa) && oa.owner.Load() != tx.id) ||
		(locked(wb) && ob.owner.Load() != tx.id) {
		core.AbortWith(core.ReasonOrecLocked)
	}
	va, vb := a.Load(), b.Load()
	if version(wa) > tx.startVersion || version(wb) > tx.startVersion ||
		oa.word.Load() != wa || ob.word.Load() != wb {
		core.AbortWith(core.ReasonValidation)
	}
	result := op.Eval(va, vb)
	tx.compares.AppendOutcomeVar(a, op, b, result)
	return result
}

// CmpSum evaluates "(Σ vars) op rhs" by delegation to classical reads: the
// version-based algorithm has no native expression support (the paper's
// technical-report extension is value-based; see DESIGN.md), so the sum pins
// its addends.
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	var sum int64
	for _, v := range vars {
		sum += tx.Read(v)
	}
	return op.Eval(sum, rhs)
}

// CmpAny evaluates the composed condition clause by clause with
// short-circuiting; under S-TL2 every evaluated clause is its own semantic
// fact, which is exactly how the published algorithm treats composed
// conditions.
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	for _, c := range conds {
		if tx.Cmp(c.Var, c.Op, c.Operand) {
			return true
		}
	}
	return false
}

// Inc implements the semantic increment; write-set handling is identical to
// S-NOrec (the paper omits it from Algorithm 7 for that reason).
func (tx *Tx) Inc(v *core.Var, delta int64) {
	tx.stats.Incs++
	tx.writes.PutInc(v, delta)
}

// validateCompareSet re-evaluates the semantic facts against current memory
// (Algorithm 7 lines 56–65), version-filtered (DESIGN.md §8): a fact whose
// orec is unlocked and still at or below the start version cannot have been
// modified since the facts were last known valid — every committed write
// bumps its orec past the committer's (higher) write version — so only
// entries whose orecs moved or are locked pay the value re-load and
// re-evaluation. This is the TL2-side analogue of NOrec's coalescing: the
// version metadata NOrec lacks makes a per-entry skip sound here, where
// NOrec can only skip whole walks. If a fact's variable is locked by
// another transaction, the validator politely waits for the lock to be
// released — the value is about to change, and only its final state decides
// the semantic outcome — bounded by the starvation timeout.
func (tx *Tx) validateCompareSet() {
	if tx.fp != nil && tx.fp.ValidationFail() {
		core.AbortWith(core.ReasonCmpFlip)
	}
	tx.stats.Validations++
	for i := range tx.compares.Entries() {
		e := &tx.compares.Entries()[i]
		if tx.orecUnchanged(e.Var) && (e.OperandVar == nil || tx.orecUnchanged(e.OperandVar)) {
			continue
		}
		tx.stats.ValEntries++
		tx.waitUnlocked(tx.g.orecFor(e.Var))
		if e.OperandVar != nil {
			tx.waitUnlocked(tx.g.orecFor(e.OperandVar))
		}
		if !e.Holds() {
			core.AbortWith(core.ReasonCmpFlip) // line 64: semantic validation failed
		}
	}
}

// orecUnchanged reports whether v's ownership record is unlocked and still
// at or below the start version, i.e. *v provably has not been modified by
// any commit since this transaction's facts were last valid. An orec-table
// collision can only make this return false for an untouched variable —
// a spurious full re-check, never a missed one.
func (tx *Tx) orecUnchanged(v *core.Var) bool {
	w := tx.g.orecFor(v).word.Load()
	return !locked(w) && version(w) <= tx.startVersion
}

// waitUnlocked waits politely (adaptive spin-then-yield) while o is locked
// by another transaction, bounded by the starvation timeout.
func (tx *Tx) waitUnlocked(o *orec) {
	tx.waiter.Reset()
	for {
		w := o.word.Load()
		if !locked(w) || o.owner.Load() == tx.id {
			return
		}
		tx.stats.SpinWaits++
		if tx.waiter.Wait() > waitBound {
			core.AbortWith(core.ReasonOrecLocked)
		}
	}
}

// validateReadSet checks that no orec in the read-set is locked by another
// transaction or versioned beyond the start version (Algorithm 7 lines
// 51–55). Orecs locked by this transaction are checked against their
// preserved pre-lock version.
func (tx *Tx) validateReadSet() {
	if tx.fp != nil && tx.fp.ValidationFail() {
		core.AbortWith(core.ReasonValidation)
	}
	tx.stats.Validations++
	tx.stats.ValEntries += uint64(len(tx.reads))
	for _, o := range tx.reads {
		w := o.word.Load()
		if locked(w) && o.owner.Load() != tx.id {
			core.AbortWith(core.ReasonOrecLocked)
		}
		if version(w) > tx.startVersion {
			core.AbortWith(core.ReasonValidation)
		}
	}
}

// acquireWriteLocks locks the distinct orecs covering the write-set in table
// order (deadlock avoidance) with bounded spinning. Held locks are recorded
// with their pre-lock words so Cleanup can roll back.
func (tx *Tx) acquireWriteLocks() {
	entries := tx.writes.Entries()
	tx.lockIdx = tx.lockIdx[:0]
	for i := range entries {
		tx.lockIdx = append(tx.lockIdx, tx.g.orecIndexFor(entries[i].Var))
	}
	sort.Ints(tx.lockIdx)
	prev := -1
	for _, idx := range tx.lockIdx {
		if idx == prev {
			continue // two variables sharing an orec: lock once
		}
		prev = idx
		o := &tx.g.orecs[idx]
		tx.waiter.Reset()
		for {
			w := o.word.Load()
			if !locked(w) && o.word.CompareAndSwap(w, w|1) {
				o.owner.Store(tx.id)
				tx.held = append(tx.held, heldLock{o: o, prev: w})
				break
			}
			tx.stats.SpinWaits++
			if tx.waiter.Wait() > spinBound {
				core.AbortWith(core.ReasonOrecLocked)
			}
		}
	}
}

// Commit publishes the transaction (Algorithm 7 lines 66–77). Read-only
// transactions — and in S-TL2, compare-only transactions — commit
// immediately with zero clock traffic: every read and comparison was already
// validated against the start version. Writers run the two-phase pieces back
// to back: lock the orecs (Prepare), certify the clock advance (certify, the
// heart of Validate), write back (Publish).
func (tx *Tx) Commit() {
	if tx.fp != nil {
		tx.fp.Step(core.SiteCommit)
	}
	if tx.writes.Len() == 0 {
		tx.finishCommit(tx.startVersion)
		return
	}
	tx.acquireWriteLocks()
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the window with the orecs held
	}
	wv := tx.certify()
	tx.writeBack(wv)
	tx.finishCommit(wv)
}

// certify advances the clock for a writer holding its orec locks and
// returns the write version, by one of two schemes (DESIGN.md §8):
//
//   - No semantic facts recorded (baseline TL2, or an S-TL2 transaction
//     whose compare-set stayed empty): plain fetch-and-add, TL2's original
//     GV1 increment. There is nothing for a concurrent committer to
//     invalidate — read-set validation is version-based and happens after
//     the increment — so the CAS retry loop would be pure contention.
//     Under k concurrent committers CAS-retry does O(k²) clock operations;
//     fetch-and-add does k.
//
//   - Semantic facts present: the compare-set was validated under a clock
//     reading, and the paper's S-TL2 requires the clock advance to certify
//     that validation (no commit may land between the validation and the
//     tick). That needs the CAS — but on CAS failure we adopt the observed
//     newer timestamp for the next round (GV5/GV6-style pass-on-failure)
//     instead of spinning the same value, and each adoption is counted
//     (Snapshot.ClockAdopts). Validation is also skipped entirely while the
//     clock still equals the start version — nothing committed, so the
//     facts established during the attempt still hold.
//
// Read-set validation is skipped only when no other writer committed since
// the snapshot.
func (tx *Tx) certify() uint64 {
	if tx.compares.Len() == 0 {
		// Contention-free scheme: one atomic add, no retries possible.
		wv := tx.g.clock.Add(1)
		if wv != tx.startVersion+1 {
			tx.validateReadSet()
		}
		return wv
	}
	time := tx.g.clock.Load()
	for {
		if tx.startVersion != time {
			tx.validateCompareSet()
		}
		if tx.g.clock.CompareAndSwap(time, time+1) {
			if tx.startVersion != time {
				tx.validateReadSet()
			}
			return time + 1
		}
		// A concurrent commit advanced the clock: adopt the newer timestamp
		// and revalidate against it rather than retrying the stale CAS.
		tx.stats.ClockAdopts++
		time = tx.g.clock.Load()
	}
}

// finishCommit records the quiescence point of a successful commit and
// retires the reader slot. Any reader pinned at or past wv loaded the clock
// after this transaction's orecs were locked (lock first, then tick), so it
// cannot have captured pre-write-back state.
func (tx *Tx) finishCommit(wv uint64) {
	tx.lastW = wv
	tx.slot.Clear()
}

// CommitPrivatize is Commit with privatization-barrier semantics (the
// TL2 orec-version fence): after write-back it drains the reader table to
// the write version, waiting out every transaction whose start version
// predates the commit — including zombies whose captured pointers lead to
// cells this commit never wrote, which orec validation alone would never
// catch. Aborts exactly like Commit, in which case no drain runs.
func (tx *Tx) CommitPrivatize() {
	tx.Commit()
	tx.g.readers.Drain(tx.lastW)
}

// PrivatizeBarrier is the drain alone, valid after a successful
// Commit/Publish on this descriptor; the sharded runtime composes it per
// touched shard.
func (tx *Tx) PrivatizeBarrier() { tx.g.readers.Drain(tx.lastW) }

// writeBack applies the write-set and releases every held orec at the new
// version wv. Increments read memory here, under the orec lock, which is the
// deferred "actual read at commit time" of Section 3.
func (tx *Tx) writeBack(wv uint64) {
	for _, e := range tx.writes.Entries() {
		if e.Kind == core.EntryInc {
			e.Var.StoreNT(e.Var.Load() + e.Val)
		} else {
			e.Var.StoreNT(e.Val)
		}
	}
	for _, h := range tx.held {
		h.o.word.Store(versionWord(wv))
	}
	tx.held = tx.held[:0]
}

// Prepare is phase 1 of the two-phase (cross-shard) commit: acquire the
// write-set's orec locks, exactly as Commit does. The orec locks are
// per-record, so — unlike NOrec's sequence lock — holding them does not
// freeze the instance: disjoint commits into this shard proceed, which is
// what keeps the single-shard path progressive while a cross-shard commit is
// in flight.
func (tx *Tx) Prepare() {
	tx.wv = 0
	if tx.writes.Len() == 0 {
		return
	}
	tx.acquireWriteLocks()
}

// Validate re-certifies this instance's snapshot for a two-phase commit.
//
// A writer participant (Prepare acquired locks) runs certify — read-set
// validation and, with semantic facts, the CAS-certified clock advance —
// and reserves its write version in tx.wv, so Publish is
// left with only the infallible write-back. Advancing the per-shard clock
// here, before the global linearization ticket, is harmless on abort: a
// clock tick with no write-back only causes spurious revalidations.
//
// A lock-free participant (read-only on this shard, or a live multi-shard
// snapshot being re-certified after a ticket movement) re-checks its reads
// and facts against the per-shard start version; when the clock has not
// moved since the snapshot the whole check is skipped.
func (tx *Tx) Validate() {
	if len(tx.held) != 0 {
		tx.wv = tx.certify()
		return
	}
	if tx.g.clock.Load() == tx.startVersion {
		return
	}
	tx.validateReadSet()
	if tx.compares.Len() != 0 {
		tx.validateCompareSet()
	}
}

// Publish is phase 2: apply the write-set and release the orecs at the
// version Validate reserved. It must not fail; lock-free participants do
// nothing.
func (tx *Tx) Publish() {
	if len(tx.held) == 0 {
		tx.finishCommit(tx.startVersion)
		return
	}
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the publish window with the orecs held
	}
	tx.writeBack(tx.wv)
	tx.finishCommit(tx.wv)
}

// Cleanup restores the pre-lock word of every orec still held by a failed
// commit, releasing the locks without changing versions.
func (tx *Tx) Cleanup() {
	for _, h := range tx.held {
		h.o.word.Store(h.prev)
	}
	tx.held = tx.held[:0]
	tx.slot.Clear()
}

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }

// SetNoExtend disables the phase-1 snapshot-extension optimization
// (Algorithm 7 lines 19–25), turning every stale-version cmp into an abort.
// It exists for the ablation benchmarks that quantify the optimization.
func (tx *Tx) SetNoExtend(on bool) { tx.noExtend = on }

// ReadSetLen reports the number of read-set entries (tests and diagnostics).
func (tx *Tx) ReadSetLen() int { return len(tx.reads) }

// CompareSetLen reports the number of compare-set facts (tests only).
func (tx *Tx) CompareSetLen() int { return tx.compares.Len() }

// InPhase1 reports whether the transaction has not yet performed a classical
// read, i.e. the start version may still be extended (tests only).
func (tx *Tx) InPhase1() bool { return len(tx.reads) == 0 }

// StartVersion exposes the current start version (tests only).
func (tx *Tx) StartVersion() uint64 { return tx.startVersion }
