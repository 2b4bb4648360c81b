package ringstm

import (
	"fmt"
	"sync/atomic"

	"semstm/internal/core"
)

// ringSize is the number of retained commit records; a transaction that
// falls more than ringSize commits behind aborts (ring wrap).
const ringSize = 1024

// entry statuses.
const (
	statusWriting  = 1
	statusComplete = 2
)

// entry is one ring slot: the write signature of the commit with timestamp
// ts. The publishing order is: filter words (plain), then ts (atomic,
// release), then the write-back, then status = complete. A reader that
// observes ts == i may therefore read the filter safely; it must wait for
// statusComplete only when it needs the written values to be stable
// (semantic re-validation).
type entry struct {
	ts     atomic.Uint64
	status atomic.Uint32
	wf     filter
}

// Global is the state shared by all transactions of one RingSTM runtime.
// The head — polled by every barrier of every thread and CASed by every
// committer — sits alone on its cache line; without the pad it shares a line
// with ring[0]'s timestamp and status words, so every wrap-around write-back
// of slot 0 would invalidate the head under all readers.
type Global struct {
	head atomic.Uint64 // number of commits; ring[i%ringSize] holds commit i
	_    core.PadWord
	ring [ringSize]entry
	// readers is the privatization-barrier surface (DESIGN.md §14): each
	// descriptor publishes its consistent point in a slot here, and a
	// privatizing committer drains the table to its commit timestamp.
	readers core.ReaderTable
}

// NewGlobal returns a fresh ring with no commits.
func NewGlobal() *Global { return &Global{} }

// Head exposes the commit count (tests only).
func (g *Global) Head() uint64 { return g.head.Load() }

// Quiescent verifies the newest commit record is fully written back: an
// abort or user panic must never leave a claimed ring slot incomplete, or
// every later transaction would spin on it forever.
func (g *Global) Quiescent() error {
	h := g.head.Load()
	if h == 0 {
		return nil
	}
	e := &g.ring[h%ringSize]
	if e.ts.Load() != h || e.status.Load() != statusComplete {
		return fmt.Errorf("ringstm: newest ring entry %d not complete", h)
	}
	return nil
}

// Tx is one RingSTM / S-RingSTM transaction descriptor.
type Tx struct {
	g        *Global
	semantic bool
	start    uint64        // newest commit known consistent with the read-set
	rf       filter        // read signature
	wf       filter        // write signature
	reads    *core.SemSet  // semantic facts (values for re-validation)
	exprs    *core.ExprSet // expression facts (extension)
	writes   *core.WriteSet
	waiter   core.Waiter
	slot     *core.ReaderSlot // published consistent point (privatization)
	lastW    uint64           // timestamp of the last commit (drain bound)
	fp       *core.FaultPlan  // nil unless fault injection is armed
	stats    core.TxStats
}

// NewTx returns a descriptor bound to g. semantic selects how a signature hit
// is resolved: S-RingSTM re-validates its facts by value, classic RingSTM
// aborts (and keeps no values). The baseline's semantic calls are delegated
// by the facade (core.Baseline), so only validation consults the flag.
func NewTx(g *Global, semantic bool) *Tx {
	return &Tx{
		g:        g,
		semantic: semantic,
		reads:    core.NewSemSet(),
		exprs:    core.NewExprSet(),
		writes:   core.NewWriteSet(),
		slot:     g.readers.NewSlot(),
	}
}

// Start begins an attempt: snapshot the ring head as the consistent point.
// The newest commit's write-back may still be in flight (write-backs are
// serialized, so only the newest can be); reads must not begin until memory
// reflects the snapshot, so Start waits it out.
func (tx *Tx) Start() {
	tx.rf.reset()
	tx.wf.reset()
	tx.reads.Reset()
	tx.exprs.Reset()
	tx.writes.Reset()
	tx.stats.Reset()
	if tx.fp != nil {
		tx.fp.Step(core.SiteStart)
	}
	tx.waiter.Reset()
	for {
		h := tx.g.head.Load()
		if h != 0 && !published(&tx.g.ring[h%ringSize], h) {
			tx.waiter.Wait()
			tx.stats.SpinWaits++
			continue
		}
		// Pin-then-recheck: the pin must be visible before the snapshot can
		// be trusted, or a privatizing committer could drain between the head
		// load and the pin publication (DESIGN.md §14).
		tx.slot.Pin(h)
		if tx.g.head.Load() == h {
			tx.start = h
			return
		}
	}
}

// SetFaultPlan arms or disarms deterministic fault injection.
func (tx *Tx) SetFaultPlan(p *core.FaultPlan) { tx.fp = p }

// published reports whether commit i's entry is fully written back.
func published(e *entry, i uint64) bool {
	return e.ts.Load() == i && e.status.Load() == statusComplete
}

// waitComplete waits (adaptively) until commit i's write-back has finished.
func (tx *Tx) waitComplete(i uint64) {
	e := &tx.g.ring[i%ringSize]
	tx.waiter.Reset()
	for e.ts.Load() == i && e.status.Load() != statusComplete {
		tx.waiter.Wait()
		tx.stats.SpinWaits++
	}
}

// validateTo brings the transaction's consistent point up to the current
// head: every commit in (start, head] either has a write signature disjoint
// from the read signature, or — in S-RingSTM — the semantic facts still hold
// after its write-back completes. Classic RingSTM aborts on any
// intersection. Returns the head the read-set is now consistent with.
func (tx *Tx) validateTo() uint64 {
	for {
		h := tx.g.head.Load()
		if h == tx.start {
			return h
		}
		if h-tx.start >= ringSize {
			core.AbortWith(core.ReasonCapacity) // fell off the ring
		}
		if tx.fp != nil && tx.fp.ValidationFail() {
			core.AbortWith(core.ReasonValidation)
		}
		tx.stats.Validations++
		tx.stats.ValEntries += h - tx.start // ring entries this pass examines
		for i := tx.start + 1; i <= h; i++ {
			e := &tx.g.ring[i%ringSize]
			// Wait for the entry to be published.
			tx.waiter.Reset()
			for e.ts.Load() < i {
				tx.waiter.Wait()
				tx.stats.SpinWaits++
			}
			if e.ts.Load() != i {
				core.AbortWith(core.ReasonCapacity) // slot already reused: too far behind
			}
			// Advancing the consistent point past commit i requires its
			// write-back to have landed: otherwise a later first read of a
			// variable i wrote could still observe the pre-i value.
			tx.waitComplete(i)
			if e.ts.Load() != i {
				core.AbortWith(core.ReasonCapacity) // slot reused while waiting
			}
			disjoint := tx.rf.empty() || !e.wf.intersects(&tx.rf)
			// A reusing writer flips status to writing before touching the
			// filter words, so this recheck certifies the filter we just
			// read was stable.
			if e.ts.Load() != i || e.status.Load() != statusComplete {
				core.AbortWith(core.ReasonCapacity)
			}
			if disjoint {
				continue // disjoint: reads unaffected
			}
			if !tx.semantic {
				core.AbortWith(core.ReasonValidation) // classic RingSTM: signature hit = conflict
			}
			// S-RingSTM: re-validate the facts by value.
			tx.stats.ValEntries += uint64(tx.reads.Len() + tx.exprs.Len())
			if ok, why := tx.reads.BrokenReason(); !ok {
				core.AbortWith(why)
			}
			if !tx.exprs.HoldsNow() {
				core.AbortWith(core.ReasonCmpFlip)
			}
		}
		tx.start = h
		// Forward pin movement: a reader validated up to h is no longer a
		// zombie with respect to any commit at or before h, so a privatizer
		// draining to w <= h may stop waiting on it. No recheck needed.
		tx.slot.Pin(h)
	}
}

// readStable loads *v at a point consistent with the read-set.
func (tx *Tx) readStable(v *core.Var) int64 {
	for {
		h := tx.validateTo()
		val := v.Load()
		if tx.g.head.Load() == h {
			return val
		}
	}
}

func (tx *Tx) raw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		val := tx.readStable(v)
		tx.rf.add(v.ID())
		tx.reads.Append(v, core.OpEQ, val)
		tx.writes.Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// Read implements TM_READ: a stable load recorded in the read signature
// (and, for re-validation, as an EQ fact — classic RingSTM keeps no values
// and the base build never consults them).
func (tx *Tx) Read(v *core.Var) int64 {
	tx.stats.Reads++
	if tx.fp != nil {
		tx.fp.Step(core.SiteRead)
	}
	if e := tx.writes.Get(v); e != nil {
		return tx.raw(v, e)
	}
	val := tx.readStable(v)
	tx.rf.add(v.ID())
	if tx.semantic {
		tx.reads.Append(v, core.OpEQ, val)
	}
	return val
}

// Write implements TM_WRITE: buffered, signature-tracked.
func (tx *Tx) Write(v *core.Var, val int64) {
	tx.stats.Writes++
	tx.writes.PutWrite(v, val)
	tx.wf.add(v.ID())
}

// Cmp implements the semantic conditional: S-RingSTM records the fact and
// the signature bit; a later signature hit re-evaluates the fact instead of
// aborting.
func (tx *Tx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	tx.stats.Compares++
	if tx.fp != nil {
		tx.fp.Step(core.SiteCmp)
	}
	if e := tx.writes.Get(v); e != nil {
		return op.Eval(tx.raw(v, e), operand)
	}
	val := tx.readStable(v)
	tx.rf.add(v.ID())
	result := op.Eval(val, operand)
	tx.reads.AppendOutcome(v, op, operand, result)
	return result
}

// CmpVars implements the address–address conditional with a two-address fact.
func (tx *Tx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	// One indexed lookup per operand (see the WriteSet Bloom fast path).
	if eb := tx.writes.Get(b); eb != nil || tx.writes.Get(a) != nil {
		var operand int64
		if eb != nil {
			operand = tx.raw(b, eb)
		} else {
			tx.stats.Reads++
			operand = tx.readStable(b)
			tx.rf.add(b.ID())
			tx.reads.Append(b, core.OpEQ, operand)
		}
		return tx.Cmp(a, op, operand)
	}
	tx.stats.Compares++
	var va, vb int64
	for {
		h := tx.validateTo()
		va, vb = a.Load(), b.Load()
		if tx.g.head.Load() == h {
			break
		}
	}
	tx.rf.add(a.ID())
	tx.rf.add(b.ID())
	result := op.Eval(va, vb)
	tx.reads.AppendOutcomeVar(a, op, b, result)
	return result
}

// CmpSum implements the arithmetic-expression conditional (extension).
func (tx *Tx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
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
	var sum int64
	for {
		h := tx.validateTo()
		sum = 0
		for _, v := range vars {
			sum += v.Load()
		}
		if tx.g.head.Load() == h {
			break
		}
	}
	for _, v := range vars {
		tx.rf.add(v.ID())
	}
	result := op.Eval(sum, rhs)
	tx.exprs.AppendSum(vars, op, rhs, result)
	return result
}

// CmpAny implements the composed condition (extension).
func (tx *Tx) CmpAny(conds []core.Cond) bool {
	for _, c := range conds {
		if tx.writes.Get(c.Var) != nil {
			for _, cc := range conds {
				if tx.Cmp(cc.Var, cc.Op, cc.Operand) {
					return true
				}
			}
			return false
		}
	}
	tx.stats.Compares++
	var result bool
	for {
		h := tx.validateTo()
		result = false
		for _, c := range conds {
			if c.Eval() {
				result = true
				break
			}
		}
		if tx.g.head.Load() == h {
			break
		}
	}
	for _, c := range conds {
		tx.rf.add(c.Var.ID())
	}
	tx.exprs.AppendOr(conds, result)
	return result
}

// Inc implements the semantic increment.
func (tx *Tx) Inc(v *core.Var, delta int64) {
	tx.stats.Incs++
	tx.writes.PutInc(v, delta)
	tx.wf.add(v.ID())
}

// Commit publishes the transaction. Read-only transactions are already
// consistent. Writers validate up to the head, claim the next ring slot
// with a CAS (the serialization point), publish their write signature, write
// back, and mark the entry complete. Write-backs are serialized: a writer
// waits for the previous entry to complete before claiming the next slot.
func (tx *Tx) Commit() {
	if tx.fp != nil {
		tx.fp.Step(core.SiteCommit)
	}
	if tx.writes.Len() == 0 {
		tx.lastW = tx.start
		tx.slot.Clear()
		return
	}
	tx.waiter.Reset()
	for {
		h := tx.validateTo()
		if h > 0 {
			// Serialize write-backs: the previous commit must be done.
			prev := &tx.g.ring[h%ringSize]
			if prev.ts.Load() == h && prev.status.Load() != statusComplete {
				tx.waiter.Wait()
				tx.stats.SpinWaits++
				continue
			}
		}
		if !tx.g.head.CompareAndSwap(h, h+1) {
			// A concurrent commit claimed slot h+1: adopt the newer head by
			// revalidating up to it on the next round.
			tx.stats.ClockAdopts++
			continue
		}
		slot := &tx.g.ring[(h+1)%ringSize]
		slot.status.Store(statusWriting)
		slot.wf = tx.wf
		slot.ts.Store(h + 1) // publish: readers may now see the filter
		if tx.fp != nil {
			tx.fp.CommitDelay() // stretch the publish-to-complete window
		}
		for _, e := range tx.writes.Entries() {
			if e.Kind == core.EntryInc {
				e.Var.StoreNT(e.Var.Load() + e.Val)
			} else {
				e.Var.StoreNT(e.Val)
			}
		}
		slot.status.Store(statusComplete)
		tx.lastW = h + 1
		tx.slot.Clear()
		return
	}
}

// CommitPrivatize is Commit with privatization-barrier semantics
// (core.Privatizer): after the commit's write-back completes, drain every
// reader still consistent with a pre-commit head. An abort unwinds like
// Commit and performs no drain.
func (tx *Tx) CommitPrivatize() {
	tx.Commit()
	tx.g.readers.Drain(tx.lastW)
}

// PrivatizeBarrier re-runs the drain of the last successful Commit.
func (tx *Tx) PrivatizeBarrier() { tx.g.readers.Drain(tx.lastW) }

// Cleanup has no locks to release: RingSTM only un-publishes the reader slot.
func (tx *Tx) Cleanup() { tx.slot.Clear() }

// AttemptStats exposes the per-attempt operation counters.
func (tx *Tx) AttemptStats() *core.TxStats { return &tx.stats }
