// Progressive hybrid-TM descriptor (DESIGN.md §13).
//
// HyTx runs each logical transaction down a three-path ladder, following the
// structure "On the Cost of Concurrency in Hybrid Transactional Memory"
// (PAPERS.md) proves necessary — progressive HyTM cannot shed *all*
// instrumentation, but it can concentrate it on the paths that need it:
//
//	fast    the uninstrumented hardware path (fast.go): no read-set, no
//	        facts, no orecs. Every barrier pays one load of the
//	        conflict-detection epoch (the sequence lock this package already
//	        uses as fallback-lock subscription) plus two bits folded into a
//	        thread-local read signature. Concurrent commits stamp write
//	        signatures into a per-epoch ring; a moved epoch aborts the
//	        attempt (ReasonHWConflict) only when the signatures intersect —
//	        the simulated analogue of hardware conflict detection, which
//	        kills a transaction whose own cache lines were invalidated, not
//	        one that merely ran concurrently with a commit.
//	middle  the instrumented hardware path: the S-NOrec seqlock kernel
//	        (norec.Tx) — semantic facts, expression sets, deferred
//	        increments — so validation can adopt a moved epoch instead of
//	        aborting, and so the attempt runs concurrently with software
//	        slow-path transactions without mutual exclusion. Still
//	        hardware: the kernel's capacity hook bounds the tracked set,
//	        spurious commit failures apply, and every validation-style
//	        failure is typed ReasonHWConflict (fail).
//	slow    the software path (slow.go): the same kernel minus the hardware
//	        failure modes — no capacity bound, classical abort reasons, no
//	        spurious aborts — i.e. a plain S-NOrec attempt. After
//	        SlowRetries software failures a classic runtime falls back to
//	        the irrevocable global lock; sharded runtimes keep retrying
//	        revocably (core.TxConfig.NoIrrevocable) and inherit progress
//	        from the runtime escalation gate.
//
// Demotion is decided by the typed abort reasons: ReasonHWCapacity demotes
// immediately (the footprint cannot shrink by retrying), ReasonHWConflict
// and ReasonSpurious demote once the per-path retry budget is spent.
// Promotion back to the fast path happens per logical transaction: NewEpoch
// resets the ladder — unless the telemetry below overrides it.
//
// On top of the per-transaction ladder sits a sticky, telemetry-driven tier
// choice (the Invyswell/Riegel mode-switching idea): each descriptor tracks
// its recent fast-path attempt outcomes, and when more than a third of the
// last stickyWindow attempts failed, the next stickyTxs logical transactions
// start directly on the instrumented middle path instead of burning the fast
// budget on a regime the fast path is losing (conflict storms, footprints at
// the capacity edge). After stickyTxs transactions the fast path is probed
// again with a fresh window, so a passing contention storm does not
// permanently pin the descriptor to the middle tier. The state is
// per-descriptor — one thread's telemetry, no shared counters, no atomics.
package htm

import (
	"math/rand"

	"semstm/internal/core"
	"semstm/internal/norec"
)

// hyPath identifies which tier of the progressive engine an attempt runs on.
type hyPath uint8

const (
	pathFast hyPath = iota
	pathMiddle
	pathSlow
)

// Per-path retry budget defaults: how many conflict/spurious failures a path
// absorbs before the transaction demotes to the next tier.
const (
	DefaultFastRetries   = 3
	DefaultMiddleRetries = 4
	DefaultSlowRetries   = 4
)

// Telemetry-ladder tuning: the fast path is disqualified for stickyTxs
// logical transactions when it failed more than a third of the last
// stickyWindow attempts. The window is small so a conflict storm is detected
// within a few transactions; the sticky span is large so the periodic
// re-probe (one window of possibly-failing fast attempts per span) stays in
// the low percents of total work.
const (
	stickyWindow = 16
	stickyTxs    = 512
)

// HyTx is one progressive hybrid transaction descriptor. The instrumented
// paths are the embedded seqlock kernel; HyTx adds the ladder, the hooks,
// and the fast path's own barriers.
type HyTx struct {
	*norec.Tx
	g   *Global
	rng *rand.Rand

	// Tunables, set before first use. A Capacity <= 0 fits nothing: every
	// hardware attempt that touches a location fails with a capacity abort.
	Capacity      int
	FastRetries   int
	MiddleRetries int
	SlowRetries   int
	SpuriousPct   float64
	// noFast starts every logical transaction on the middle path — the
	// HyTM-mid ablation engine, which is also the fully-instrumented cell
	// the hybrid gate compares the fast path against. noFallback disables
	// the irrevocable lock fallback (sharded runtimes, see slow.go).
	noFast     bool
	noFallback bool

	// Demotion state of the current logical transaction (NewEpoch resets).
	path         hyPath
	pathFailures int // conflict/spurious failures on the current path

	// Sticky-tier telemetry (see the package comment): outcome counts of the
	// current fast-attempt window and the remaining span of a sticky middle
	// start. Per-descriptor, reset only by the window roll.
	fastWindow    int  // fast attempts observed in the current window
	fastFails     int  // how many of them failed
	stickyLeft    int  // logical transactions still starting on the middle path
	stickyPending bool // count this logical transaction's sticky start once

	stats     *core.TxStats    // the kernel's attempt counters
	fastReads int              // fast path's tracked-location tally (no read-set exists)
	lastFast  *core.Var        // fast path's last first-touch (repeat-probe dedup)
	rsig      [sigWords]uint64 // fast path's read signature (fast.go)
}

// NewHyTx returns a progressive hybrid descriptor bound to g; noFast forces
// the instrumented middle path (the HyTM-mid ablation).
func NewHyTx(g *Global, noFast bool, seed int64) *HyTx {
	tx := &HyTx{
		Tx:            norec.NewTx(&g.Global),
		g:             g,
		rng:           rand.New(rand.NewSource(seed)),
		Capacity:      DefaultCapacity,
		FastRetries:   DefaultFastRetries,
		MiddleRetries: DefaultMiddleRetries,
		SlowRetries:   DefaultSlowRetries,
		SpuriousPct:   DefaultSpuriousPct,
		noFast:        noFast,
	}
	tx.stats = tx.AttemptStats()
	tx.Hooks.Fail = tx.fail
	tx.Hooks.PreCommit = tx.spurious
	tx.Hooks.Stamp = g.stampSig // fast readers check every epoch's record
	tx.NewEpoch()
	return tx
}

// NewEpoch begins a new logical transaction: back to the top of the path
// ladder with a fresh failure budget — or, when the fast path's recent
// telemetry disqualifies it, directly onto the instrumented middle path.
// The runtime calls it once per Atomically invocation.
func (tx *HyTx) NewEpoch() {
	switch {
	case tx.noFast:
		tx.path = pathMiddle
	case tx.stickyLeft > 0:
		tx.stickyLeft--
		tx.path = pathMiddle
		tx.stickyPending = true
	default:
		tx.path = pathFast
	}
	tx.pathFailures = 0
}

// noteFast feeds one fast-path attempt outcome into the sticky-tier
// telemetry. When the window fills with more than a third failures, the
// descriptor starts its next stickyTxs logical transactions on the middle
// path (NewEpoch consumes stickyLeft).
func (tx *HyTx) noteFast(failed bool) {
	tx.fastWindow++
	if failed {
		tx.fastFails++
	}
	if tx.fastWindow >= stickyWindow {
		if tx.fastFails*3 > tx.fastWindow {
			tx.stickyLeft = stickyTxs
		}
		tx.fastWindow, tx.fastFails = 0, 0
	}
}

// Start begins an attempt on whatever path the demotion state selected:
// hardware speculation subscribes to the sequence lock; an exhausted slow
// path acquires it irrevocably (classic runtimes only).
func (tx *HyTx) Start() {
	if tx.path == pathFast && tx.g.privatizing.Load() != 0 {
		// A privatizing commit is in flight: sit the barrier window out on
		// the instrumented middle path (htm.go: Global.privatizing). The
		// ladder state is untouched — the next logical transaction probes the
		// fast path again.
		tx.path = pathMiddle
	}
	// The kernel's capacity bound is the middle path's; the fast path
	// counts its own footprint (fastCapacity), the slow path is unbounded.
	tx.Hooks.Capacity = 0
	if tx.path == pathMiddle {
		tx.Hooks.Capacity = hwBound(tx.Capacity)
	}
	if tx.path == pathSlow && !tx.noFallback && tx.pathFailures > tx.SlowRetries {
		tx.StartIrrevocable()
		tx.g.fallbacks.Add(1)
	} else {
		if tx.path == pathFast {
			tx.fastReads, tx.lastFast = 0, nil
			tx.rsig = [sigWords]uint64{}
		}
		tx.Tx.Start()
	}
	if tx.stickyPending {
		tx.stickyPending = false
		tx.stats.StickyStarts = 1 // first attempt of a sticky logical tx
	}
}

// budget is the current path's retry allowance for non-capacity failures.
func (tx *HyTx) budget() int {
	switch tx.path {
	case pathFast:
		return tx.FastRetries
	case pathMiddle:
		return tx.MiddleRetries
	default:
		return tx.SlowRetries
	}
}

// abortPath records a failure of the current path, applies the demotion
// policy, and unwinds the attempt with the typed reason. Capacity overflow
// demotes immediately — the same footprint cannot fit the same buffers on
// retry — while conflicts and spurious failures demote only once the path's
// budget is spent. On the slow path the counter instead feeds the
// irrevocable-fallback threshold checked by Start.
func (tx *HyTx) abortPath(reason core.Reason) {
	if tx.path != pathSlow {
		tx.g.hwAborts.Add(1)
	}
	if tx.path == pathFast {
		tx.noteFast(true)
	}
	tx.pathFailures++
	if tx.path != pathSlow &&
		(reason == core.ReasonHWCapacity || tx.pathFailures > tx.budget()) {
		tx.path++
		tx.pathFailures = 0
	}
	core.AbortWith(reason)
}

// fail is the kernel's Fail hook. The hardware paths type every
// validation-style failure as the demotion-driving ReasonHWConflict
// (hardware reports that the transaction lost, not why) and a capacity
// overflow as ReasonHWCapacity; the software slow path keeps the classical
// taxonomy (validation vs cmp-flip vs locked metadata).
func (tx *HyTx) fail(why core.Reason) {
	if tx.path != pathSlow {
		switch why {
		case core.ReasonValidation, core.ReasonCmpFlip, core.ReasonOrecLocked:
			why = core.ReasonHWConflict
		case core.ReasonCapacity:
			why = core.ReasonHWCapacity
		}
	}
	tx.abortPath(why)
}

// spurious is the PreCommit hook: the hardware paths (fast, middle) may fail
// at the commit point without a conflict — the simulated interrupt/TLB noise
// of real best-effort HTM; the software slow path may not.
func (tx *HyTx) spurious() {
	if tx.path != pathSlow && tx.SpuriousPct > 0 && tx.rng.Float64()*100 < tx.SpuriousPct {
		tx.abortPath(core.ReasonSpurious)
	}
}

// Read implements TM_READ on the current path.
func (tx *HyTx) Read(v *core.Var) int64 {
	if tx.path == pathFast {
		tx.stats.Reads++
		return tx.fastRead(v)
	}
	return tx.Tx.Read(v)
}

// Write implements TM_WRITE: buffered on every revocable path.
func (tx *HyTx) Write(v *core.Var, val int64) {
	if tx.path == pathFast {
		tx.stats.Writes++
		tx.WriteSet().PutWrite(v, val)
		tx.fastCapacity()
		return
	}
	tx.Tx.Write(v, val)
}

// Cmp implements the semantic conditional. The instrumented paths record a
// fact; the fast path has nothing to record a fact into, so it degenerates
// to an uninstrumented read plus a local comparison (counted as a read, like
// the non-semantic baselines' delegation).
func (tx *HyTx) Cmp(v *core.Var, op core.Op, operand int64) bool {
	if tx.path == pathFast {
		tx.stats.Reads++
		return op.Eval(tx.fastRead(v), operand)
	}
	return tx.Tx.Cmp(v, op, operand)
}

// CmpVars implements the address–address conditional.
func (tx *HyTx) CmpVars(a *core.Var, op core.Op, b *core.Var) bool {
	if tx.path == pathFast {
		tx.stats.Reads += 2
		operand := tx.fastRead(b)
		return op.Eval(tx.fastRead(a), operand)
	}
	return tx.Tx.CmpVars(a, op, b)
}

// Inc implements the semantic increment. Every path defers it: the write-set
// entry publishes as an atomic read-modify-write under the sequence lock, so
// even the uninstrumented fast path gets read-free increments.
func (tx *HyTx) Inc(v *core.Var, delta int64) {
	if tx.path == pathFast {
		tx.stats.Incs++
		tx.WriteSet().PutInc(v, delta)
		tx.fastCapacity()
		return
	}
	tx.Tx.Inc(v, delta)
}

// CmpSum implements the arithmetic-expression conditional: a composed fact
// on the instrumented paths, a plain uninstrumented evaluation on the fast
// path.
func (tx *HyTx) CmpSum(op core.Op, rhs int64, vars []*core.Var) bool {
	if tx.path == pathFast {
		var sum int64
		for _, v := range vars {
			tx.stats.Reads++
			sum += tx.fastRead(v)
		}
		return op.Eval(sum, rhs)
	}
	return tx.Tx.CmpSum(op, rhs, vars)
}

// CmpAny implements the composed condition.
func (tx *HyTx) CmpAny(conds []core.Cond) bool {
	if tx.path == pathFast {
		for _, c := range conds {
			tx.stats.Reads++
			if c.Op.Eval(tx.fastRead(c.Var), c.Operand) {
				return true
			}
		}
		return false
	}
	return tx.Tx.CmpAny(conds)
}

// Commit publishes the transaction on the current path: the kernel's commit
// (with this engine's hooks) on the instrumented paths and the irrevocable
// fallback, fastCommit on the fast path.
func (tx *HyTx) Commit() {
	if tx.path == pathFast {
		tx.fastCommit()
	} else {
		tx.Tx.Commit()
	}
	tx.countCommit()
}

// countCommit attributes a successful commit to its path. On sharded
// runtimes a cross-shard commit counts each participating shard's path, so
// the per-path tallies can exceed the transaction count by the cross-shard
// participation factor (exactly like WALAppends).
func (tx *HyTx) countCommit() {
	switch tx.path {
	case pathFast:
		tx.noteFast(false)
		tx.stats.HWFastCommits++
	case pathMiddle:
		tx.stats.HWMiddleCommits++
	}
}

// CommitPrivatize is Commit with privatization-barrier semantics
// (core.Privatizer): the commit is bracketed by the privatizing counter —
// demoting new fast-path attempts to the instrumented middle path for the
// window — and after linearization every reader subscribed to a pre-commit
// snapshot is waited out. An abort unwinds like Commit and performs no drain.
func (tx *HyTx) CommitPrivatize() {
	tx.g.privatizing.Add(1)
	defer tx.g.privatizing.Add(-1)
	tx.Commit()
	tx.Tx.PrivatizeBarrier()
}

// PrivatizeBarrier re-runs the drain of the last successful Commit/Publish.
func (tx *HyTx) PrivatizeBarrier() {
	tx.g.privatizing.Add(1)
	defer tx.g.privatizing.Add(-1)
	tx.Tx.PrivatizeBarrier()
}
