package tl2

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// TestLayoutPadding pins the false-sharing contract of orec.go: one orec per
// cache line, and the clock and txid hot words on lines of their own.
func TestLayoutPadding(t *testing.T) {
	if s := unsafe.Sizeof(orec{}); s != core.CacheLine {
		t.Fatalf("sizeof(orec) = %d, want %d", s, core.CacheLine)
	}
	var g Global
	clockOff := unsafe.Offsetof(g.clock)
	txidOff := unsafe.Offsetof(g.txid)
	orecsOff := unsafe.Offsetof(g.orecs)
	if txidOff-clockOff < core.CacheLine {
		t.Fatalf("clock (+%d) and txid (+%d) share a cache line", clockOff, txidOff)
	}
	if orecsOff-txidOff < core.CacheLine {
		t.Fatalf("txid (+%d) and orecs (+%d) share a cache line", txidOff, orecsOff)
	}
}

// TestFetchAddCommitPath checks the contention-free clock scheme: commits
// that recorded no semantic facts advance the clock by exactly one each and
// never take the adoption branch, whether the descriptor is baseline TL2 or
// an S-TL2 descriptor whose compare-set stayed empty.
func TestFetchAddCommitPath(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(0)
		tx := newTx(g, semantic)
		for i := 0; i < 8; i++ {
			if !txtest.MustCommit(tx, func() { tx.Write(v, int64(i)) }) {
				t.Fatal("solo writer must commit")
			}
		}
		if g.Clock() != 8 {
			t.Fatalf("semantic=%v: clock = %d, want 8", semantic, g.Clock())
		}
		if a := tx.AttemptStats().ClockAdopts; a != 0 {
			t.Fatalf("semantic=%v: solo commits adopted %d clock values", semantic, a)
		}
	}
}

// TestSemanticCommitRevalidatesOnMovedClock drives the CAS-certified path:
// when the clock moved past the start version, commit must revalidate the
// compare-set before ticking the clock — aborting when a concurrent commit
// broke a fact, committing when the fact still holds.
func TestSemanticCommitRevalidatesOnMovedClock(t *testing.T) {
	// Broken fact: T1 holds x==0, T2 makes x nonzero, T1's commit must abort.
	g := NewGlobal()
	x, y, z := core.NewVar(0), core.NewVar(0), core.NewVar(0)
	t1, t2 := NewTx(g), NewTx(g)
	t1.Start()
	if !txtest.Step(t1, func() {
		if !t1.Cmp(x, core.OpEQ, 0) {
			t.Fatal("x==0 must hold")
		}
		t1.Write(y, 1)
	}) {
		t.Fatal("facts step must survive")
	}
	txtest.MustCommit(t2, func() { t2.Write(x, 5) })
	if txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("commit with a broken fact must abort")
	}
	if y.Load() != 0 {
		t.Fatal("aborted writer leaked its write")
	}

	// Surviving fact: an unrelated commit moves the clock; T1 revalidates
	// and commits.
	t1.Start()
	if !txtest.Step(t1, func() {
		if t1.Cmp(x, core.OpEQ, 5) != true {
			t.Fatal("x==5 must hold")
		}
		t1.Write(y, 2)
	}) {
		t.Fatal("facts step must survive")
	}
	txtest.MustCommit(t2, func() { t2.Write(z, 9) })
	if !txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("commit with an intact fact must survive a moved clock")
	}
	if y.Load() != 2 {
		t.Fatalf("committed write lost: y = %d", y.Load())
	}
	if v := tx1Validations(t1); v == 0 {
		t.Fatal("moved-clock commit must count a validation pass")
	}
}

func tx1Validations(tx *Tx) uint64 { return tx.AttemptStats().Validations }

// TestClockAdoptionUnderContention hammers the CAS-certified commit path
// from several goroutines and checks the system-wide invariant the adoption
// scheme must preserve: every writer commit advances the clock by exactly
// one, no matter how many CAS failures were resolved by adopting a newer
// timestamp. Adoption counts are workload- and scheduler-dependent, so they
// are reported, not asserted.
func TestClockAdoptionUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers, txPerWorker = 4, 200
	g := NewGlobal()
	vars := make([]*core.Var, workers)
	for i := range vars {
		vars[i] = core.NewVar(1)
	}
	var commits, adopts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := NewTx(g)
			mine := vars[w]
			for i := 0; i < txPerWorker; i++ {
				for { // retry aborts
					if txtest.MustCommit(tx, func() {
						// A fact on a neighbour plus a write keeps the
						// compare-set non-empty, forcing the CAS path.
						_ = tx.Cmp(vars[(w+1)%workers], core.OpGTE, 1)
						tx.Write(mine, tx.Read(mine)+1)
					}) {
						commits.Add(1)
						break
					}
				}
				adopts.Store(tx.AttemptStats().ClockAdopts)
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Clock(), commits.Load(); got != want {
		t.Fatalf("clock = %d after %d writer commits", got, want)
	}
	for i := range vars {
		if vars[i].Load() != 1+txPerWorker {
			t.Fatalf("var %d = %d, want %d", i, vars[i].Load(), 1+txPerWorker)
		}
	}
	t.Logf("clock adoptions observed (last worker sample): %d", adopts.Load())
}
