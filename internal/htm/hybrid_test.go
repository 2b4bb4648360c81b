package htm

import (
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// newQuietHyTx returns a progressive descriptor with spurious aborts
// disabled so tests are deterministic.
func newQuietHyTx(g *Global, noFast bool) *HyTx {
	tx := NewHyTx(g, noFast, 1)
	tx.SpuriousPct = 0
	return tx
}

// bump commits a writing transaction through a second descriptor, moving the
// conflict-detection epoch under any in-flight attempt.
func bump(t *testing.T, g *Global, v *core.Var) {
	t.Helper()
	other := newQuietHyTx(g, false)
	other.NewEpoch()
	if !txtest.MustCommit(other, func() { other.Write(v, other.Read(v)+1) }) {
		t.Fatal("bump commit must succeed")
	}
}

// TestHybridFastPathUninstrumented verifies a solo fast-path commit succeeds
// with zero instrumentation state and is attributed to the fast path.
func TestHybridFastPathUninstrumented(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(1)
	tx := newQuietHyTx(g, false)
	tx.NewEpoch()
	if !txtest.MustCommit(tx, func() {
		if got := tx.Read(v); got != 1 {
			t.Fatalf("Read = %d", got)
		}
		if tx.ReadSetLen() != 0 || tx.ExprSetLen() != 0 {
			t.Fatalf("fast path recorded metadata: %d reads, %d exprs",
				tx.ReadSetLen(), tx.ExprSetLen())
		}
		tx.Write(v, 2)
	}) {
		t.Fatal("solo fast-path commit must succeed")
	}
	if v.Load() != 2 {
		t.Fatalf("memory = %d", v.Load())
	}
	if tx.stats.HWFastCommits != 1 || tx.stats.HWMiddleCommits != 0 {
		t.Fatalf("path attribution: fast=%d middle=%d",
			tx.stats.HWFastCommits, tx.stats.HWMiddleCommits)
	}
	if tx.path != pathFast {
		t.Fatalf("path = %d after clean commit", tx.path)
	}
}

// TestHybridNoFastStartsOnMiddle pins the HyTM-mid ablation: the fast path
// is never entered.
func TestHybridNoFastStartsOnMiddle(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	tx := newQuietHyTx(g, true)
	tx.NewEpoch()
	if tx.path != pathMiddle {
		t.Fatalf("noFast descriptor starts on path %d", tx.path)
	}
	if !txtest.MustCommit(tx, func() { tx.Write(v, 7) }) {
		t.Fatal("middle-path commit must succeed")
	}
	if tx.stats.HWFastCommits != 0 || tx.stats.HWMiddleCommits != 1 {
		t.Fatalf("path attribution: fast=%d middle=%d",
			tx.stats.HWFastCommits, tx.stats.HWMiddleCommits)
	}
}

// TestHybridConflictDemotesFastToMiddle drives fast-path attempts into
// hw-conflict aborts until the budget demotes the transaction, and verifies
// the typed reason, the middle path's survival of the same interference, and
// the ladder reset on NewEpoch. The interference is a commit that writes the
// very variable the attempt tested: on the fast path the conditional is a
// raw read whose signature the writer's intersects, so the attempt dies; on
// the middle path the same conditional is a semantic fact ("v > -5") that
// the bump preserves, so validation adopts the moved epoch instead.
func TestHybridConflictDemotesFastToMiddle(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	w := core.NewVar(0)
	tx := newQuietHyTx(g, false)
	tx.FastRetries = 2
	tx.NewEpoch()

	fails := 0
	for tx.path == pathFast {
		tx.Start()
		if !tx.Cmp(v, core.OpGT, -5) {
			t.Fatal("v > -5 must hold")
		}
		bump(t, g, v) // overlapping write: signatures intersect
		aborted := txtest.Aborted(func() { _ = tx.Read(w) })
		if !aborted {
			t.Fatal("fast-path read after a conflicting commit must abort")
		}
		tx.Cleanup()
		fails++
		if fails > 10 {
			t.Fatal("never demoted")
		}
	}
	if fails != tx.FastRetries+1 {
		t.Fatalf("demoted after %d failures, budget %d", fails, tx.FastRetries)
	}
	if tx.path != pathMiddle {
		t.Fatalf("path = %d, want middle", tx.path)
	}

	// The instrumented middle path records the conditional as a fact the
	// same interference preserves: revalidate-and-adopt instead of abort.
	tx.Start()
	if !tx.Cmp(v, core.OpGT, -5) {
		t.Fatal("v > -5 must hold")
	}
	bump(t, g, v)
	if !txtest.MustCommitRest(tx, func() {
		_ = tx.Read(w)
		tx.Write(w, 1)
	}) {
		t.Fatal("middle path must absorb a benign epoch move")
	}
	if tx.stats.HWMiddleCommits != 1 {
		t.Fatalf("HWMiddleCommits = %d", tx.stats.HWMiddleCommits)
	}

	tx.NewEpoch()
	if tx.path != pathFast || tx.pathFailures != 0 {
		t.Fatalf("NewEpoch kept path=%d failures=%d", tx.path, tx.pathFailures)
	}
}

// TestHybridFastPathSurvivesDisjointCommit pins the signature-based conflict
// detection of fast.go: a concurrent commit that writes nothing the attempt
// read moves the epoch but does not kill the attempt — it adopts the new
// epoch and still commits on the fast path. (Pre-signature engines aborted
// every in-flight fast attempt on any commit.)
func TestHybridFastPathSurvivesDisjointCommit(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	w := core.NewVar(0)
	tx := newQuietHyTx(g, false)
	tx.NewEpoch()
	if !txtest.MustCommit(tx, func() {
		if got := tx.Read(w); got != 0 {
			t.Fatalf("Read = %d", got)
		}
		bump(t, g, v) // disjoint writer: epoch moves, signatures do not meet
		if got := tx.Read(w); got != 0 {
			t.Fatalf("Read after disjoint commit = %d", got)
		}
		tx.Write(w, 1)
	}) {
		t.Fatal("fast path must survive a signature-disjoint commit")
	}
	if tx.path != pathFast || tx.stats.HWFastCommits != 1 {
		t.Fatalf("path=%d fast commits=%d", tx.path, tx.stats.HWFastCommits)
	}
	if tx.stats.ClockAdopts == 0 {
		t.Fatal("the moved epoch must be adopted, not ignored")
	}
	if v.Load() != 1 || w.Load() != 1 {
		t.Fatalf("memory v=%d w=%d", v.Load(), w.Load())
	}
}

// TestHybridFastPathAbortsOnIrrevocableRelease pins the all-ones signature
// of the irrevocable fallback: its write-set is unknown, so any fast attempt
// that read anything must abort when it observes the release.
func TestHybridFastPathAbortsOnIrrevocableRelease(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	w := core.NewVar(0)
	tx := newQuietHyTx(g, false)
	tx.NewEpoch()
	tx.Start()
	_ = tx.Read(w)

	// Drive a second descriptor into the irrevocable fallback and commit it.
	other := newQuietHyTx(g, false)
	other.FastRetries = 0
	other.MiddleRetries = 0
	other.SlowRetries = 0
	other.NewEpoch()
	other.pathFailures = 1
	other.path = pathSlow
	if !txtest.MustCommit(other, func() { other.Write(v, 1) }) {
		t.Fatal("irrevocable commit must succeed")
	}
	if g.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, fallback never engaged", g.Fallbacks())
	}

	if !txtest.Aborted(func() { _ = tx.Read(w) }) {
		t.Fatal("fast attempt must abort after an irrevocable release")
	}
	tx.Cleanup()
	if err := g.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridCapacityDemotesImmediately verifies ReasonHWCapacity skips the
// retry budget on both hardware paths: fast → middle on the first overflow,
// middle → slow on the next, and the slow path commits the same footprint
// (it is unbounded).
func TestHybridCapacityDemotesImmediately(t *testing.T) {
	g := NewGlobal()
	vars := core.NewVars(64, 0)
	tx := newQuietHyTx(g, false)
	tx.Capacity = 8
	tx.NewEpoch()

	body := func() {
		for i, v := range vars {
			tx.Write(v, int64(i)+1)
		}
	}
	for i := 0; i < 2; i++ {
		if txtest.MustCommit(tx, body) {
			t.Fatalf("attempt %d: overflow must abort", i)
		}
	}
	if tx.path != pathSlow {
		t.Fatalf("path = %d after two capacity overflows, want slow", tx.path)
	}
	if !txtest.MustCommit(tx, body) {
		t.Fatal("unbounded slow path must commit the footprint")
	}
	if tx.Irrevocable() || g.Fallbacks() != 0 {
		t.Fatal("slow path committed revocably, no fallback expected")
	}
	if vars[63].Load() != 64 {
		t.Fatalf("memory = %d", vars[63].Load())
	}
	if tx.stats.HWFastCommits != 0 || tx.stats.HWMiddleCommits != 0 {
		t.Fatal("slow-path commit must not count as a hardware commit")
	}
}

// TestHybridSlowPathFallsBackIrrevocably exhausts the slow path's budget
// with injected faults and verifies the classic-lock fallback engages — and
// that NoIrrevocable (the sharded configuration) suppresses it.
func TestHybridSlowPathFallsBackIrrevocably(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	tx := newQuietHyTx(g, false)
	tx.FastRetries = 0
	tx.MiddleRetries = 0
	tx.SlowRetries = 1
	tx.NewEpoch()

	// Every revocable attempt dies at commit until the fallback engages.
	tx.SetFaultPlan(core.NewFaultPlan(1).WithSpurious(core.SiteCommit, 100))
	attempts := 0
	for !txtest.MustCommit(tx, func() { tx.Write(v, 1) }) {
		attempts++
		if attempts > 20 {
			t.Fatal("never fell back")
		}
	}
	if g.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d", g.Fallbacks())
	}
	if v.Load() != 1 {
		t.Fatalf("memory = %d", v.Load())
	}
	if err := g.Quiescent(); err != nil {
		t.Fatal(err)
	}

	// The sharded configuration never goes irrevocable: the same storm keeps
	// the descriptor revocable (progress would come from the runtime gate,
	// which disarms fault plans on escalated attempts).
	tx2 := newQuietHyTx(g, false)
	tx2.FastRetries = 0
	tx2.MiddleRetries = 0
	tx2.SlowRetries = 1
	tx2.noFallback = true
	tx2.NewEpoch()
	tx2.SetFaultPlan(core.NewFaultPlan(2).WithSpurious(core.SiteCommit, 100))
	for i := 0; i < 10; i++ {
		if txtest.MustCommit(tx2, func() { tx2.Write(v, 2) }) {
			t.Fatal("every attempt is faulted; commit impossible")
		}
		if tx2.Irrevocable() {
			t.Fatal("NoIrrevocable descriptor went irrevocable")
		}
	}
	tx2.SetFaultPlan(nil)
	if !txtest.MustCommit(tx2, func() { tx2.Write(v, 2) }) {
		t.Fatal("disarmed descriptor must commit")
	}
	if g.Fallbacks() != 1 {
		t.Fatalf("fallbacks moved to %d under NoIrrevocable", g.Fallbacks())
	}
	if err := g.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridTwoPhaseCleanupRevertsPrepare pins the sharded abort path: a
// participant whose cross-shard commit dies after Prepare must release the
// sequence lock with no memory written.
func TestHybridTwoPhaseCleanupRevertsPrepare(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(5)
	tx := newQuietHyTx(g, false)
	tx.NewEpoch()
	tx.Start()
	tx.Write(v, 9)
	tx.Prepare()
	if g.Seq.Load()&1 == 0 {
		t.Fatal("Prepare must hold the sequence lock")
	}
	tx.Cleanup() // the other shard aborted
	if g.Seq.Load()&1 != 0 {
		t.Fatal("Cleanup must release the sequence lock")
	}
	if v.Load() != 5 {
		t.Fatalf("memory = %d after aborted prepare", v.Load())
	}
	if err := g.Quiescent(); err != nil {
		t.Fatal(err)
	}

	// And the full two-phase commit publishes.
	tx.NewEpoch()
	tx.Start()
	tx.Write(v, 9)
	tx.Prepare()
	tx.Validate()
	tx.Publish()
	if v.Load() != 9 {
		t.Fatalf("memory = %d after publish", v.Load())
	}
	if tx.stats.HWFastCommits != 1 {
		t.Fatalf("HWFastCommits = %d", tx.stats.HWFastCommits)
	}
	if err := g.Quiescent(); err != nil {
		t.Fatal(err)
	}
}
