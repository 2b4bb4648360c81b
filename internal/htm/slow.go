// The software slow path of the progressive hybrid engine: the bottom of the
// demotion ladder, plus the decomposed two-phase commit that lets a sharded
// runtime host the engine.
//
// A slow-path attempt is a plain S-NOrec attempt on the seqlock kernel: the
// hooks' hardware failure modes are off on this path.
// On a classic runtime, SlowRetries software failures escalate once more to
// the irrevocable global-lock fallback (the same sequence lock, held odd),
// which cannot abort and therefore guarantees progress. Sharded runtimes
// forbid that fallback (core.TxConfig.NoIrrevocable): irrevocable attempts
// write in place, which cannot roll back when *another shard's* Prepare
// aborts a cross-shard commit. There the slow path retries revocably without
// bound and progress comes from the runtime-level escalation gate instead.
package htm

import "semstm/internal/norec"

// Prepare acquires this shard's sequence lock with the read-set validated —
// phase one of the decomposed commit (core.TwoPhase). Read-only participants
// acquire nothing. The hardware paths keep their character here: a spurious
// failure can still kill the attempt at the commit point, the fast path
// adopts moved epochs by signature intersection (fast.go), and the
// instrumented paths run the kernel's validate-and-adopt — both bounded
// (norec.TwoPhaseWaitBound) so cross-shard lock acquisition stays
// deadlock-free.
func (tx *HyTx) Prepare() {
	if tx.WriteSet().Len() == 0 {
		return
	}
	tx.spurious()
	if tx.path == pathFast {
		for !tx.TryLock() {
			tx.fastAdoptLimit(norec.TwoPhaseWaitBound)
		}
		return
	}
	tx.Tx.Prepare()
}

// Validate re-checks this participant under the cross-shard decision point.
// A writing participant holds its shard's lock since Prepare, so nothing can
// have moved; a read-only participant revalidates live: the fast path
// intersects its read signature against any epochs that moved, the
// instrumented paths run the kernel's bounded validation.
func (tx *HyTx) Validate() {
	if tx.path == pathFast && !tx.Locked() {
		tx.fastAdoptLimit(norec.TwoPhaseWaitBound)
		return
	}
	tx.Tx.Validate()
}

// Publish applies the write-set and releases the lock — phase two, reached
// only after every participating shard validated.
func (tx *HyTx) Publish() {
	tx.Tx.Publish()
	tx.countCommit()
}
