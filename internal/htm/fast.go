// The uninstrumented fast path of the progressive hybrid engine.
//
// A fast-path attempt keeps no read-set, no semantic facts, and no per-orec
// state. Its entire instrumentation budget is:
//
//   - fallback-lock subscription at Start (shared with every path),
//   - one load of the conflict-detection epoch per tracked location, and
//   - two bits folded into a thread-local read signature per first touch.
//
// The epoch is the engine's sequence lock: every committed writer bumps it
// and stamps its write-set into the per-epoch ring (Global.sigs) before
// releasing. The conflict check runs *after* the value load — a writer makes
// the lock word odd before it stores any value, so observing the even
// snapshot after the load proves the load pre-dated any concurrent publish.
// When the epoch has moved, the attempt tests each recorded write of the
// intervening commits for membership in its read signature (fastAdopt):
// all-misses prove no committed writer touched anything this attempt read,
// so the new epoch is adopted and speculation continues — the simulated
// equivalent of hardware conflict detection, which only kills a transaction
// whose *own* cache lines were invalidated, not one that merely ran
// concurrently with a commit. A membership hit (true conflict or Bloom false
// positive, the analogue of cache-line false sharing) aborts with
// ReasonHWConflict and lets the demotion policy decide whether to retry here
// or fall to the instrumented middle path.
package htm

import (
	"semstm/internal/core"
)

// sigAdd folds v into the attempt's local read signature. Called before the
// epoch check of every fast-path first touch, so by the time fastAdopt
// consults the signature it already covers the value just loaded. The
// explicit index masks are provably redundant (a bit position is < sigBits)
// and exist to spare the barrier two bounds checks.
func (tx *HyTx) sigAdd(v *core.Var) {
	b1, b2 := sigBitsFor(v.ID())
	tx.rsig[(b1>>6)&(sigWords-1)] |= 1 << (b1 & 63)
	tx.rsig[(b2>>6)&(sigWords-1)] |= 1 << (b2 & 63)
}

// fastAdopt brings the attempt's snapshot up to the current epoch, aborting
// (ReasonHWConflict) if any intervening commit recorded a write to a location
// in the attempt's read signature — or if the attempt has fallen so far
// behind that ring slots may have been recycled (sigMaxLag).
func (tx *HyTx) fastAdopt() { tx.fastAdoptLimit(0) }

// fastAdoptLimit is fastAdopt with a bounded wait on the sequence lock; the
// two-phase commit path uses the bound to stay deadlock-free while holding
// its own shard's lock (see slow.go). limit <= 0 waits forever.
func (tx *HyTx) fastAdoptLimit(limit int) {
	w := tx.Waiter()
	w.Reset()
	rounds := 0
	for {
		cur := tx.g.Seq.Load()
		if cur&1 != 0 {
			rounds++
			if limit > 0 && rounds > limit {
				tx.abortPath(core.ReasonHWConflict)
			}
			w.Wait() // subscribe: wait out the lock holder
			tx.stats.SpinWaits++
			continue
		}
		snap := tx.Snapshot()
		if cur == snap {
			return
		}
		if (cur-snap)/2 > sigMaxLag {
			tx.abortPath(core.ReasonHWConflict) // ring slots may be recycled
		}
		hit := false
		for e := snap + 2; e <= cur && !hit; e += 2 {
			slot := &tx.g.sigs[(e>>1)&(sigSlots-1)]
			n := slot[0].Load()
			if n > sigCap { // sigWide: unknown write-set
				hit = tx.fastReads > 0 || tx.WriteSet().Len() > 0
				continue
			}
			for i := uint64(0); i < n; i++ {
				b1, b2 := sigBitsFor(slot[1+i].Load())
				if tx.rsig[(b1>>6)&(sigWords-1)]&(1<<(b1&63)) != 0 &&
					tx.rsig[(b2>>6)&(sigWords-1)]&(1<<(b2&63)) != 0 {
					hit = true
					break
				}
			}
		}
		if tx.g.Seq.Load() != cur {
			continue // a commit landed mid-scan; slots may be torn — rescan
		}
		if hit {
			tx.abortPath(core.ReasonHWConflict)
		}
		tx.stats.ClockAdopts++
		// Forward pin movement: every intervening commit was proved
		// signature-disjoint from the reads so far, so this attempt is no
		// zombie with respect to any commit at or before cur.
		tx.Adopt(cur)
		return
	}
}

// fastLoad returns v's value consistent with the attempt's snapshot,
// adopting moved epochs whose commits are signature-disjoint from the reads
// so far. Callers fold v into the read signature before calling, so the
// adopt covers the value just loaded.
func (tx *HyTx) fastLoad(v *core.Var) int64 {
	val := v.Load()
	for tx.g.Seq.Load() != tx.Snapshot() {
		tx.fastAdopt()
		val = v.Load()
	}
	return val
}

// fastCapacity models the hardware tracking limit. The fast path has no
// read-set, but real HTM still tracks every speculatively accessed line, so
// the simulated budget counts distinct first-touches (fastReads) plus
// buffered writes.
func (tx *HyTx) fastCapacity() {
	if tx.fastReads+tx.WriteSet().Len() > tx.Capacity {
		tx.abortPath(core.ReasonHWCapacity)
	}
}

// fastRaw resolves a read that hit the write buffer. A deferred increment
// must be promoted: the caller needs the resolved value, which requires the
// current memory value — one more tracked location.
func (tx *HyTx) fastRaw(v *core.Var, e *core.WriteEntry) int64 {
	if e.Kind == core.EntryInc {
		tx.sigAdd(v)
		val := tx.fastLoad(v)
		tx.fastReads++
		tx.WriteSet().Promote(v, e.Val+val)
		tx.stats.Promotes++
	}
	return e.Val
}

// fastRead is the uninstrumented read barrier: load, signature fold, one
// epoch check, no bookkeeping beyond the capacity tally. A repeat of the
// immediately preceding location (the common shape of a probe step, which
// interrogates one cell twice) is the same tracked line: it needs neither a
// new signature fold nor a capacity charge, only the load and epoch check.
func (tx *HyTx) fastRead(v *core.Var) int64 {
	tx.Inject(core.SiteRead) // the kernel's fault plan, failing through tx.fail
	if e := tx.WriteSet().Get(v); e != nil {
		return tx.fastRaw(v, e)
	}
	if v != tx.lastFast {
		tx.sigAdd(v)
		tx.lastFast = v
		tx.fastReads++
		tx.fastCapacity()
	}
	return tx.fastLoad(v)
}

// fastCommit publishes a fast-path attempt: after the commit fault site and
// the spurious-failure roll, acquire the sequence lock, adopting any epochs
// that moved underneath (signature-checked like any other adopt), then the
// kernel's Publish stamps this commit's write record, writes back and
// releases. Read-only attempts commit immediately — their reads were each
// validated at the (possibly advanced) snapshot, their serialization point.
func (tx *HyTx) fastCommit() {
	tx.Inject(core.SiteCommit)
	tx.spurious()
	for tx.WriteSet().Len() > 0 && !tx.TryLock() {
		tx.fastAdopt()
	}
	tx.Tx.Publish()
}
