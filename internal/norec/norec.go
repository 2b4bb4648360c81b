// Package norec implements the NOrec STM algorithm [Dalessandro, Spear,
// Scott; PPoPP 2010] and its semantic extension S-NOrec (Algorithm 6 of
// "Extending TM Primitives using Low Level Semantics", SPAA 2016).
//
// NOrec serializes commit phases under a single timestamped sequence lock and
// validates transactions by value: the read-set stores (address, value) pairs
// that must still hold at validation time. S-NOrec generalizes value-based
// validation to semantic validation: plain reads are recorded as EQ facts,
// conditional operations record the operator (or its inverse when the
// observed outcome is false), and increments are buffered in the write-set
// and applied at commit. The baseline NOrec engine is this same descriptor
// behind the facade's delegation (core.Baseline), which turns Cmp into Read
// and Inc into Read+Write exactly like the paper's non-semantic builds.
//
// Tx is also the repository's one value-validated seqlock barrier kernel
// (DESIGN.md §5): the simulated hardware engines (internal/htm) embed it and
// add only their policy through Hooks — a capacity bound, typed failure
// accounting, spurious commit failure and write-record stamping — plus the
// irrevocable in-place mode of StartIrrevocable. The zero Hooks value is
// plain S-NOrec.
package norec

import (
	"fmt"
	"sync/atomic"

	"semstm/internal/core"
)

// Global is the state shared by all transactions of one NOrec runtime: the
// global timestamped sequence lock. An odd value means a writer is committing.
// The lock word is the single hottest word in the whole algorithm — every
// barrier of every thread loads it and every writer CASes it — so it gets a
// cache line of its own rather than sharing one with whatever the runtime
// allocates next to the Global.
type Global struct {
	// Seq is the sequence lock. Engines built on the kernel read it
	// directly (the hardware fast path polls it as its conflict epoch).
	Seq atomic.Uint64
	_   core.PadWord
	// readers is the privatization-barrier surface (DESIGN.md §14): every
	// descriptor publishes its active snapshot in a slot here, and a
	// privatizing committer drains the table to its commit timestamp.
	readers core.ReaderTable
}

// NewGlobal returns a fresh, unlocked global sequence lock.
func NewGlobal() *Global { return &Global{} }

// Sequence exposes the current value of the sequence lock (tests only).
func (g *Global) Sequence() uint64 { return g.Seq.Load() }

// Quiescent verifies no commit lock is leaked: at a quiescent point (no
// transaction in flight) the sequence lock must be even. The chaos harness
// calls it after injected aborts and user panics.
func (g *Global) Quiescent() error {
	if s := g.Seq.Load(); s&1 != 0 {
		return fmt.Errorf("norec: sequence lock leaked (seq=%d)", s)
	}
	return nil
}

// TwoPhaseWaitBound caps how many waiter rounds a two-phase participant
// spends on an odd (writer-held) sequence lock before aborting. Unbounded
// waiting is fine for the single-instance algorithm — the lock holder always
// finishes — but a cross-shard participant may itself hold another shard's
// lock, and two such participants waiting on each other's shards would
// deadlock. Bounding the wait turns the cycle into an abort (counted under
// ReasonOrecLocked, the "locked metadata" bucket) that the retry loop's
// backoff then breaks.
const TwoPhaseWaitBound = 128

// Hooks is the policy an engine layers over the kernel. Every hook is
// optional, and the zero value is plain S-NOrec; on the per-barrier path each
// costs one nil or zero test.
type Hooks struct {
	// Fail accounts a failed attempt before it unwinds. It receives the
	// classical reason (validation, cmp-flip, orec-locked, spurious,
	// capacity) and may unwind with a reason of its own; if it returns, the
	// attempt aborts with the classical reason.
	Fail func(why core.Reason)
	// PreCommit runs after the commit fault site and before the sequence
	// lock is taken; it may fail the attempt (spurious commit failure).
	PreCommit func()
	// Stamp runs with the sequence lock held, before the write-back, with
	// the even value the release will store. ws is the buffered write-set,
	// or nil when the attempt wrote in place (StartIrrevocable).
	Stamp func(release uint64, ws *core.WriteSet)
	// Capacity bounds the tracked entries (read-set + expression set +
	// write-set) of an attempt; the barrier that exceeds it fails with
	// ReasonCapacity. Zero means unbounded; a negative bound admits nothing,
	// so the first tracked barrier fails.
	Capacity int
}

// Tx.rare bits.
const (
	rareFault   uint8 = 1 << iota // a fault plan is armed (SetFaultPlan keeps it equal to fp != nil)
	rareInPlace                   // irrevocable attempt: barriers run in place, no sets
)

// Tx is one NOrec transaction descriptor, reused across attempts.
type Tx struct {
	g      *Global
	dedup  bool
	locked bool // holds the sequence lock (Prepare..Publish, or irrevocable)
	// rare gathers what sends a barrier off its plain path (rareFault,
	// rareInPlace), so plain S-NOrec Read and Cmp pay one test for both.
	rare     uint8
	snapshot uint64
	// valSeq is the validation watermark (DESIGN.md §8): the sequence value
	// at which the full read-set and expression-set were last known valid.
	// validate skips the whole walk when the lock still reads valSeq —
	// entries appended since then were each read at a stable sequence equal
	// to valSeq, so they hold at valSeq by construction. Once the lock moves
	// past the watermark the full set must be re-walked: value-based
	// validation cannot tell which entries the intervening commit touched.
	valSeq uint64
	reads  *core.SemSet
	exprs  *core.ExprSet // complex-expression facts (extension)
	writes *core.WriteSet
	waiter core.Waiter
	fp     *core.FaultPlan // nil unless fault injection is armed
	// Hooks is the engine policy over the kernel; set before first use.
	Hooks Hooks
	stats core.TxStats
	// slot publishes the active snapshot to privatizing committers; lastW is
	// the quiescence timestamp of the last successful commit — the sequence
	// value from which PrivatizeBarrier drains.
	slot  *core.ReaderSlot
	lastW uint64
}

// NewTx returns an S-NOrec transaction descriptor bound to g.
func NewTx(g *Global) *Tx {
	return &Tx{
		g:      g,
		reads:  core.NewSemSet(),
		exprs:  core.NewExprSet(),
		writes: core.NewWriteSet(),
		slot:   g.readers.NewSlot(),
	}
}

// reset clears the per-attempt state.
func (tx *Tx) reset() {
	tx.reads.Reset()
	tx.exprs.Reset()
	tx.writes.Reset()
	tx.stats.Reset()
	tx.locked = false
	tx.rare &^= rareInPlace
}

// inPlace reports whether the attempt runs in place (StartIrrevocable).
func (tx *Tx) inPlace() bool { return tx.rare&rareInPlace != 0 }

// Start begins a new attempt (Algorithm 6 lines 24–28): spin until the
// sequence lock is even and snapshot it.
func (tx *Tx) Start() {
	tx.reset()
	if tx.fp != nil {
		tx.inject(core.SiteStart)
	}
	tx.waiter.Reset()
	for {
		s := tx.g.Seq.Load()
		if s&1 == 0 {
			// Pin-then-recheck: the reader slot must be visible before the
			// snapshot can be trusted, or a privatizing committer could scan
			// the table between our load and the pin and miss this reader.
			tx.slot.Pin(s)
			if tx.g.Seq.Load() == s {
				tx.snapshot = s
				// The empty read-set is trivially valid here, so the watermark
				// starts at the snapshot rather than carrying a value from the
				// previous attempt.
				tx.valSeq = s
				return
			}
			continue
		}
		tx.waiter.Wait()
		tx.stats.SpinWaits++
	}
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) {
	tx.fp = p
	tx.rare &^= rareFault
	if p != nil {
		tx.rare |= rareFault
	}
}

// Inject fires the armed fault plan (if any) at site, failing the attempt
// through the Fail hook like the kernel's own barriers do. It serves an
// engine's own barriers (the hardware fast path).
func (tx *Tx) Inject(site core.FaultSite) {
	if tx.fp != nil {
		tx.inject(site)
	}
}

// abort unwinds the attempt, letting the Fail hook account it first.
func (tx *Tx) abort(why core.Reason) {
	if tx.Hooks.Fail != nil {
		tx.Hooks.Fail(why)
	}
	core.AbortWith(why)
}

// inject consults the armed fault plan at site (callers test fp != nil).
func (tx *Tx) inject(site core.FaultSite) {
	if tx.fp.SpuriousHit(site) {
		tx.abort(core.ReasonSpurious)
	}
}

// tracked enforces the Capacity hook after a barrier grew the tracked set.
// It stays small enough to inline, so plain S-NOrec pays only the zero test.
func (tx *Tx) tracked() {
	if tx.Hooks.Capacity != 0 {
		tx.checkCapacity()
	}
}

func (tx *Tx) checkCapacity() {
	if tx.reads.Len()+tx.exprs.Len()+tx.writes.Len() > tx.Hooks.Capacity {
		tx.abort(core.ReasonCapacity)
	}
}

// validate re-checks the whole read-set against current memory (Algorithm 6
// lines 1–9). It waits (adaptively — see core.Waiter) while a writer holds
// the sequence lock, performs the semantic validation, and confirms the lock
// did not move meanwhile. On success it returns the (even) time at which the
// read-set was known valid and advances the valSeq watermark to it; when the
// lock still reads the watermark the walk is skipped entirely (validation
// coalescing, DESIGN.md §8). On semantic failure it aborts.
func (tx *Tx) validate() uint64 { return tx.validateLimit(0) }

// validateLimit is validate with an optional bound on waiter rounds spent on
// an odd lock (limit 0 waits forever — the single-instance behaviour; the
// two-phase paths pass TwoPhaseWaitBound and abort past it).
func (tx *Tx) validateLimit(limit int) uint64 {
	tx.waiter.Reset()
	spins := 0
	for {
		time := tx.g.Seq.Load()
		if time&1 != 0 {
			if limit > 0 {
				if spins++; spins > limit {
					tx.abort(core.ReasonOrecLocked)
				}
			}
			tx.waiter.Wait()
			tx.stats.SpinWaits++
			continue
		}
		if time == tx.valSeq {
			// Nothing committed since the last full walk: every entry —
			// including ones appended after that walk, each read at a stable
			// sequence equal to the watermark — is known valid at this time.
			tx.slot.Pin(time)
			return time
		}
		if tx.fp != nil && tx.fp.ValidationFail() {
			tx.abort(core.ReasonValidation)
		}
		tx.stats.Validations++
		tx.stats.ValEntries += uint64(tx.reads.Len() + tx.exprs.Len())
		if ok, why := tx.reads.BrokenReason(); !ok {
			tx.abort(why)
		}
		if !tx.exprs.HoldsNow() {
			tx.abort(core.ReasonCmpFlip)
		}
		if time == tx.g.Seq.Load() {
			tx.valSeq = time
			// Forward pin movement needs no recheck: a read-set just proven
			// valid at time is no zombie with respect to any commit <= time.
			tx.slot.Pin(time)
			return time
		}
	}
}

// readValid reads *v at a moment consistent with the read-set (Algorithm 6
// lines 10–16): if the sequence lock moved since the snapshot, revalidate and
// re-read until a stable snapshot is obtained.
func (tx *Tx) readValid(v *core.Var) int64 {
	val := v.Load()
	for tx.snapshot != tx.g.Seq.Load() {
		tx.snapshot = tx.validate()
		val = v.Load()
	}
	return val
}

// raw resolves a read-after-write against write-set entry e (Algorithm 6
// lines 17–23). A pending increment is promoted: the current memory value is
// read consistently, recorded as an EQ fact, and folded into the entry, which
// becomes a standard write.
func (tx *Tx) raw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readValid(v)
		tx.reads.Append(v, core.OpEQ, val)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// Read implements the classical TM_READ barrier (Algorithm 6 lines 37–43).
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	if tx.rare != 0 {
		if tx.inPlace() {
			return v.Load()
		}
		tx.inject(core.SiteRead)
	}
	if e := tx.writes.Get(v); e != nil {
		return tx.raw(v, e)
	}
	val := tx.readValid(v)
	if !tx.dedup || !tx.reads.HasEQ(v, val) {
		tx.reads.Append(v, core.OpEQ, val)
	}
	tx.tracked()
	return val
}

// SetDedupReads toggles read-after-read de-duplication: the paper
// deliberately appends one read-set entry per read because "the overhead of
// discovering duplicates may not be negligible"; this knob exists to measure
// exactly that trade-off (see the ablation benchmarks).
func (tx *Tx) SetDedupReads(on bool) { tx.dedup = on }

// Write implements the classical TM_WRITE barrier (Algorithm 6 lines 50–52).
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	if tx.inPlace() {
		v.StoreNT(val)
		return
	}
	tx.writes.PutWrite(v, val)
	tx.tracked()
}

// Cmp implements the semantic conditional (Algorithm 6 lines 29–36).
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	tx.stats.Compares++
	if tx.rare != 0 {
		if tx.inPlace() {
			return op.Eval(v.Load(), operand)
		}
		tx.inject(core.SiteCmp)
	}
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.raw(v, e), operand)
	}
	val := tx.readValid(v)
	result := op.Eval(val, operand)
	tx.reads.AppendOutcome(v, op, operand, result)
	tx.tracked()
	return result
}

// CmpVars implements the address–address conditional (_ITM_S2R). When both
// operands are clean (not in the write-set), S-NOrec records a single
// two-address fact "*a op *b" whose validation re-reads both sides — so
// concurrent updates that move both values while preserving the outcome
// (e.g. head and tail both advancing while head != tail) no longer abort.
// Operands with buffered writes fall back to the address–value machinery.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	if tx.inPlace() {
		tx.stats.Compares++
		return op.Eval(a.Load(), b.Load())
	}
	// One indexed lookup per operand: the write-set's Bloom signature makes
	// the common both-clean case two signature tests with no probing at all.
	if eb := tx.writes.Get(b); eb != nil || tx.writes.Get(a) != nil {
		var operand int64
		if eb != nil {
			operand = tx.raw(b, eb)
		} else {
			tx.stats.Reads++
			operand = tx.readValid(b)
			tx.reads.Append(b, core.OpEQ, operand)
		}
		return tx.Cmp(a, op, operand)
	}
	tx.stats.Compares++
	va, vb := a.Load(), b.Load()
	for tx.snapshot != tx.g.Seq.Load() {
		tx.snapshot = tx.validate()
		va, vb = a.Load(), b.Load()
	}
	result := op.Eval(va, vb)
	tx.reads.AppendOutcomeVar(a, op, b, result)
	tx.tracked()
	return result
}

// CmpSum implements the arithmetic-expression conditional "(Σ vars) op rhs"
// (technical-report extension): the whole sum comparison is recorded as one
// fact, so compensating modifications of the addends (x += d, y -= d) never
// abort the reader. Operands with buffered writes force delegation to
// classical reads.
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	if tx.inPlace() {
		tx.stats.Compares++
		return op.Eval(sumLoads(vars), rhs)
	}
	for _, v := range vars {
		if tx.writes.Get(v) != nil {
			var sum int64
			for _, v := range vars {
				sum += tx.Read(v)
			}
			return op.Eval(sum, rhs)
		}
	}
	tx.stats.Compares++
	sum := sumLoads(vars)
	for tx.snapshot != tx.g.Seq.Load() {
		tx.snapshot = tx.validate()
		sum = sumLoads(vars)
	}
	result := op.Eval(sum, rhs)
	tx.exprs.AppendSum(vars, op, rhs, result)
	tx.tracked()
	return result
}

func sumLoads(vars []*core.Var) int64 {
	var sum int64
	for _, v := range vars {
		sum += v.Load()
	}
	return sum
}

// CmpAny implements the composed condition "c1 || c2 || ..." as one semantic
// fact (technical-report extension): a clause flipping false is harmless
// while another clause keeps the disjunction true — the full strength of the
// paper's Algorithm 1 example. Clauses over buffered writes degrade to
// per-clause semantics.
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	if tx.inPlace() {
		tx.stats.Compares++
		return evalAny(conds)
	}
	for _, c := range conds {
		if tx.writes.Get(c.Var) != nil {
			// Per-clause semantic short-circuit (the published algorithm's
			// behaviour for composed conditions).
			for _, cc := range conds {
				if tx.Cmp(cc.Var, cc.Op, cc.Operand) {
					return true
				}
			}
			return false
		}
	}
	tx.stats.Compares++
	result := evalAny(conds)
	for tx.snapshot != tx.g.Seq.Load() {
		tx.snapshot = tx.validate()
		result = evalAny(conds)
	}
	tx.exprs.AppendOr(conds, result)
	tx.tracked()
	return result
}

func evalAny(conds []core.Cond) bool {
	for _, c := range conds {
		if c.Eval() {
			return true
		}
	}
	return false
}

// Inc implements the semantic increment (Algorithm 6 lines 44–49).
func (tx *Tx) Inc(v *core.Var, delta int64) {
	tx.stats.Incs++
	if tx.inPlace() {
		v.StoreNT(v.Load() + delta)
		return
	}
	tx.writes.PutInc(v, delta)
	tx.tracked()
}

// Commit publishes the transaction. Read-only (and in S-NOrec compare-only)
// transactions commit with zero CAS traffic: their last read/cmp was already
// validated, and the sequence lock is never touched. Writers acquire the
// sequence lock by CAS from their snapshot; each failure means a concurrent
// commit advanced the lock, so the newer timestamp is adopted by revalidating
// at it (counted as a clock adoption) before retrying. The write-set is then
// applied — increments read memory here, safely, since commit phases are
// serial — and the lock released two ticks later. Commit is the two-phase
// pieces run back to back: lock (Prepare, unbounded) then Publish.
func (tx *Tx) Commit() {
	if tx.inPlace() {
		tx.releaseInPlace()
		return
	}
	if tx.fp != nil {
		tx.inject(core.SiteCommit)
	}
	if tx.Hooks.PreCommit != nil {
		tx.Hooks.PreCommit()
	}
	tx.lock(0)
	tx.Publish()
}

// lock acquires the sequence lock for a writer by CAS from the snapshot,
// adopting each newer timestamp by revalidating at it (limit bounds the
// waits, as in validateLimit). Read-only attempts acquire nothing.
func (tx *Tx) lock(limit int) {
	if tx.writes.Len() == 0 {
		return
	}
	for !tx.TryLock() {
		tx.stats.ClockAdopts++
		tx.snapshot = tx.validateLimit(limit)
	}
}

// TryLock makes one attempt to take the sequence lock from the snapshot. An
// engine with its own way of adopting a moved lock (the hardware fast path's
// signature check) loops on it; the kernel's own loop is lock.
func (tx *Tx) TryLock() bool {
	if tx.g.Seq.CompareAndSwap(tx.snapshot, tx.snapshot+1) {
		tx.locked = true
		return true
	}
	return false
}

// CommitPrivatize is Commit with privatization-barrier semantics: after the
// write-back is published it drains the reader table to the commit
// timestamp, waiting out every in-flight transaction whose snapshot
// predates it (the doomed zombies of the privatization literature). On
// return the caller owns whatever the transaction unlinked. Aborts exactly
// like Commit, in which case no drain runs.
func (tx *Tx) CommitPrivatize() {
	tx.Commit()
	tx.g.readers.Drain(tx.lastW)
}

// PrivatizeBarrier is the drain alone, valid after a successful
// Commit/Publish on this descriptor; the sharded runtime composes it per
// touched shard.
func (tx *Tx) PrivatizeBarrier() { tx.g.readers.Drain(tx.lastW) }

// Prepare acquires the sequence lock for a two-phase (cross-shard) commit —
// Commit's CAS-from-snapshot loop, but with bounded waiting inside the
// adopt-revalidate step so a participant that already holds another shard's
// lock cannot deadlock against a symmetric participant. Read-only
// participants (empty write-set) acquire nothing. A successful Prepare
// leaves the lock odd until Publish or Cleanup.
func (tx *Tx) Prepare() { tx.lock(TwoPhaseWaitBound) }

// Validate re-certifies this instance's snapshot for a two-phase commit.
// While the sequence lock is held (Prepare succeeded with writes), the
// instance's memory cannot change — every commit into a shard's variables
// goes through that shard's engine — and the CAS itself proved the read-set
// valid at lock time, so there is nothing to check. A lock-free participant
// (read-only on this shard, or a live multi-shard snapshot being re-certified
// after a ticket movement) runs a bounded validation walk and adopts the
// newer timestamp.
func (tx *Tx) Validate() {
	if tx.locked {
		return
	}
	tx.snapshot = tx.validateLimit(TwoPhaseWaitBound)
}

// Publish applies the write-set under the held lock (deferred increments
// read memory here, safely — the lock serializes commits into this instance)
// and releases the lock two ticks later. It is phase 2 of the two-phase
// commit and the tail of Commit; it must not fail. Read-only attempts only
// retire their reader slot.
func (tx *Tx) Publish() {
	if !tx.locked {
		tx.lastW = tx.snapshot
		tx.slot.Clear()
		return
	}
	if tx.Hooks.Stamp != nil {
		tx.Hooks.Stamp(tx.snapshot+2, tx.writes)
	}
	if tx.fp != nil {
		tx.fp.CommitDelay() // stretch the publish window under the lock
	}
	for _, e := range tx.writes.Entries() {
		if e.Kind == core.EntryInc {
			e.Var.StoreNT(e.Var.Load() + e.Val)
		} else {
			e.Var.StoreNT(e.Val)
		}
	}
	tx.release()
}

// release drops the held lock two ticks past the snapshot. The new value is
// the quiescence timestamp: any reader that starts at (or extends past) it
// observed this commit's write-back.
func (tx *Tx) release() {
	tx.locked = false
	tx.g.Seq.Store(tx.snapshot + 2)
	tx.lastW = tx.snapshot + 2
	tx.slot.Clear()
}

// StartIrrevocable begins an attempt that takes the sequence lock up front
// and runs every barrier in place — the irrevocable fallback of the hardware
// engines. It cannot abort: no other writer can commit while it runs, and
// every concurrent attempt waits on (or revalidates past) the odd lock. Its
// Commit, or the Cleanup of a user panic, releases the lock two ticks past
// the acquisition: the in-place writes are already visible, so even the
// panic path must advance the lock rather than restore it.
func (tx *Tx) StartIrrevocable() {
	tx.reset()
	tx.waiter.Reset()
	for {
		s := tx.g.Seq.Load()
		if s&1 == 0 && tx.g.Seq.CompareAndSwap(s, s+1) {
			tx.snapshot = s
			tx.locked = true
			tx.rare |= rareInPlace
			return
		}
		tx.waiter.Wait()
		tx.stats.SpinWaits++
	}
}

// releaseInPlace ends an irrevocable attempt; its write-set is unknown.
func (tx *Tx) releaseInPlace() {
	tx.rare &^= rareInPlace
	if tx.Hooks.Stamp != nil {
		tx.Hooks.Stamp(tx.snapshot+2, nil)
	}
	tx.release()
}

// Cleanup releases held resources after an abort. The single-instance
// algorithm aborts only while not holding the sequence lock; a two-phase
// participant, however, can abort between Prepare and Publish (another
// shard's validation failed), in which case the lock is restored to its
// pre-Prepare value — no memory was written, so reverting the lock word is
// indistinguishable from the lock never having been taken. An irrevocable
// attempt unwound by a user panic wrote in place and releases forward.
func (tx *Tx) Cleanup() {
	if tx.inPlace() {
		tx.releaseInPlace()
		return
	}
	if tx.locked {
		tx.locked = false
		tx.g.Seq.Store(tx.snapshot)
	}
	tx.slot.Clear()
}

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }

// Snapshot reports the sequence value the attempt is consistent with.
func (tx *Tx) Snapshot() uint64 { return tx.snapshot }

// Adopt moves the snapshot forward to the even value s. The caller must have
// proved the attempt's reads still hold at s by its own means (the hardware
// fast path checks write records instead of a read-set).
func (tx *Tx) Adopt(s uint64) {
	tx.snapshot = s
	tx.slot.Pin(s)
}

// Locked reports whether the attempt holds the sequence lock.
func (tx *Tx) Locked() bool { return tx.locked }

// Irrevocable reports whether the attempt runs in place (StartIrrevocable).
func (tx *Tx) Irrevocable() bool { return tx.inPlace() }

// WriteSet exposes the attempt's write buffer to an engine's own barriers.
func (tx *Tx) WriteSet() *core.WriteSet { return tx.writes }

// Waiter exposes the descriptor's lock waiter to an engine's own barriers,
// which never run in the same attempt as the kernel's.
func (tx *Tx) Waiter() *core.Waiter { return &tx.waiter }

// ReadSetLen reports the number of read-set entries (tests and diagnostics).
func (tx *Tx) ReadSetLen() int { return tx.reads.Len() }

// ExprSetLen reports the number of expression-set entries (tests and
// diagnostics).
func (tx *Tx) ExprSetLen() int { return tx.exprs.Len() }

// WriteSetLen reports the number of write-set entries (tests and diagnostics).
func (tx *Tx) WriteSetLen() int { return tx.writes.Len() }
