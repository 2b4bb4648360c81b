package htm

import (
	"sync"
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// newQuietTx returns a descriptor with spurious aborts disabled so tests are
// deterministic.
func newQuietTx(g *Global) *Tx {
	tx := NewTx(g, 1)
	tx.SpuriousPct = 0
	return tx
}

// view returns tx itself (S-HTM) or, when semantic is false, the classic HTM
// baseline: tx behind core.Baseline, exactly as the stm facade binds the
// registered HTM engine.
func view(tx *Tx, semantic bool) core.TxImpl {
	if semantic {
		return tx
	}
	return core.Baseline{TxImpl: tx}
}

func TestCommitVisibility(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(1)
		tx := newQuietTx(g)
		tx.NewEpoch()
		impl := view(tx, semantic)
		if !txtest.MustCommit(impl, func() {
			if got := impl.Read(v); got != 1 {
				t.Fatalf("Read = %d", got)
			}
			impl.Write(v, 2)
		}) {
			t.Fatal("solo hardware commit must succeed")
		}
		if v.Load() != 2 {
			t.Fatalf("memory = %d", v.Load())
		}
		if g.Fallbacks() != 0 {
			t.Fatal("no fallback expected")
		}
	}
}

func TestCapacityAbortAndFallback(t *testing.T) {
	g := NewGlobal()
	vars := core.NewVars(100, 0)
	tx := newQuietTx(g)
	tx.Capacity = 16
	tx.MaxHWRetries = 2
	tx.NewEpoch()

	body := func() {
		for i, v := range vars {
			tx.Write(v, int64(i)+1)
		}
	}
	// Hardware attempts exhaust the budget on capacity...
	attempts := 0
	for !txtest.MustCommit(tx, body) {
		attempts++
		if attempts > 10 {
			t.Fatal("never fell back")
		}
	}
	// ...and the fallback eventually commits everything.
	if g.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", g.Fallbacks())
	}
	if g.HWAborts() != uint64(tx.MaxHWRetries)+1 {
		t.Fatalf("hw aborts = %d, want %d", g.HWAborts(), tx.MaxHWRetries+1)
	}
	for i, v := range vars {
		if v.Load() != int64(i)+1 {
			t.Fatalf("write %d lost", i)
		}
	}
	// The fallback lock must be released: another hardware txn commits.
	t2 := newQuietTx(g)
	t2.NewEpoch()
	if !txtest.MustCommit(t2, func() { t2.Write(vars[0], 77) }) {
		t.Fatal("post-fallback hardware commit failed")
	}
}

// TestSemanticSavesCapacity is the S-HTM headline: a transaction of pure
// increments larger than the tracked-read capacity... still fits, because
// deferred increments occupy only write-set slots and record no reads, while
// the base build doubles the footprint with read entries.
func TestSemanticSavesCapacity(t *testing.T) {
	const n = 40
	run := func(semantic bool) (fallbacks uint64) {
		g := NewGlobal()
		vars := core.NewVars(n, 0)
		tx := newQuietTx(g)
		tx.Capacity = n + n/2 // fits n incs, not n reads + n writes
		tx.MaxHWRetries = 1
		tx.NewEpoch()
		impl := view(tx, semantic)
		for !txtest.MustCommit(impl, func() {
			for _, v := range vars {
				impl.Inc(v, 1)
			}
		}) {
		}
		return g.Fallbacks()
	}
	if fb := run(true); fb != 0 {
		t.Fatalf("S-HTM fell back %d times; deferred incs must fit", fb)
	}
	if fb := run(false); fb == 0 {
		t.Fatal("base HTM must exceed capacity and fall back")
	}
}

func TestSpuriousAbortsRetry(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	tx := NewTx(g, 7)
	tx.SpuriousPct = 100 // every hardware commit fails
	tx.MaxHWRetries = 3
	tx.NewEpoch()
	committed := false
	for i := 0; i < 10 && !committed; i++ {
		committed = txtest.MustCommit(tx, func() { tx.Write(v, 5) })
	}
	if !committed {
		t.Fatal("fallback must rescue a spurious-abort storm")
	}
	if g.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d", g.Fallbacks())
	}
	if v.Load() != 5 {
		t.Fatal("write lost")
	}
}

func TestLockSubscription(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(0), core.NewVar(0)

	// A fallback transaction holds the lock...
	fb := newQuietTx(g)
	fb.MaxHWRetries = -1 // force immediate fallback
	fb.NewEpoch()
	fb.Start()
	fb.Write(x, 1)

	// ...so a hardware transaction cannot even start; it must block until
	// the fallback commits.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hw := newQuietTx(g)
		hw.NewEpoch()
		hw.Start() // blocks on the odd sequence lock
		if got := hw.Read(x); got != 1 {
			t.Errorf("hardware txn read %d, want the fallback's write", got)
		}
		hw.Write(y, 2)
		hw.Commit()
		close(done)
	}()

	fb.Write(y, 1)
	fb.Commit()
	<-done
	wg.Wait()
	if y.Load() != 2 {
		t.Fatalf("y = %d", y.Load())
	}
}

func TestSemanticFactsSurviveInHardware(t *testing.T) {
	g := NewGlobal()
	x, z := core.NewVar(5), core.NewVar(0)
	t1 := newQuietTx(g)
	t2 := newQuietTx(g)
	t1.NewEpoch()
	t2.NewEpoch()

	t1.Start()
	if !t1.Cmp(x, core.OpGT, 0) {
		t.Fatal("x > 0 must hold")
	}
	t2.NewEpoch()
	txtest.MustCommit(t2, func() { t2.Inc(x, 3) })
	if !txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("S-HTM must commit: the fact x > 0 still holds")
	}
}
