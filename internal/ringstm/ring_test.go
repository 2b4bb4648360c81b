package ringstm

import (
	"sync"
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// newTx builds an S-RingSTM descriptor, or — when semantic is false — the
// classic RingSTM baseline: the signature-validating descriptor behind
// core.Baseline, exactly as the stm facade binds the registered engine.
func newTx(g *Global, semantic bool) core.TxImpl {
	if semantic {
		return NewTx(g, true)
	}
	return core.Baseline{TxImpl: NewTx(g, false)}
}

func TestFilterBasics(t *testing.T) {
	var f, g filter
	if !f.empty() {
		t.Fatal("fresh filter not empty")
	}
	f.add(42)
	if f.empty() {
		t.Fatal("filter empty after add")
	}
	if f.intersects(&g) {
		t.Fatal("intersection with empty filter")
	}
	g.add(42)
	if !f.intersects(&g) {
		t.Fatal("same element must intersect (no false negatives)")
	}
	f.reset()
	if !f.empty() {
		t.Fatal("reset failed")
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	var f filter
	ids := []uint64{1, 7, 100, 1 << 40, 999999937}
	for _, id := range ids {
		f.add(id)
	}
	for _, id := range ids {
		var single filter
		single.add(id)
		if !f.intersects(&single) {
			t.Fatalf("id %d lost", id)
		}
	}
}

func TestCommitVisibility(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(1)
		tx := newTx(g, semantic)
		if !txtest.MustCommit(tx, func() {
			if got := tx.Read(v); got != 1 {
				t.Fatalf("Read = %d", got)
			}
			tx.Write(v, 2)
		}) {
			t.Fatal("solo writer must commit")
		}
		if v.Load() != 2 {
			t.Fatalf("memory = %d", v.Load())
		}
		if g.Head() != 1 {
			t.Fatalf("head = %d", g.Head())
		}
	}
}

func TestReadOnlyDoesNotAdvanceRing(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(3)
	tx := NewTx(g, true)
	txtest.MustCommit(tx, func() {
		_ = tx.Read(v)
		_ = tx.Cmp(v, core.OpGT, 0)
	})
	if g.Head() != 0 {
		t.Fatalf("read-only commit advanced the ring to %d", g.Head())
	}
}

// TestSignatureConflictAbortsBase: classic RingSTM aborts on a write-set /
// read-set signature intersection even when the value is semantically
// irrelevant; S-RingSTM re-validates the facts and survives.
func TestSignatureConflictSemanticRescue(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		x, z := core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		if !t1.Cmp(x, core.OpGT, 0) {
			t.Fatal("x > 0 must hold")
		}
		txtest.MustCommit(t2, func() { t2.Inc(x, 1) }) // real intersection on x
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-RingSTM must survive: fact x > 0 still holds")
	}
	if run(false) {
		t.Error("classic RingSTM must abort on the signature hit")
	}
}

func TestSemanticAbortsOnBrokenFact(t *testing.T) {
	g := NewGlobal()
	x, z := core.NewVar(5), core.NewVar(0)
	t1 := NewTx(g, true)
	t2 := NewTx(g, true)

	t1.Start()
	_ = t1.Cmp(x, core.OpGT, 0)
	txtest.MustCommit(t2, func() { t2.Write(x, -1) })
	if txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("fact broken; S-RingSTM must abort")
	}
}

func TestPaperAlgorithm1(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		x, y, z := core.NewVar(5), core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		if !txtest.Step(t1, func() {
			if !t1.Cmp(x, core.OpGT, 0) || !t1.Cmp(y, core.OpGT, 0) {
				t.Fatal("conditions must hold")
			}
		}) {
			return false
		}
		txtest.MustCommit(t2, func() {
			t2.Inc(x, 1)
			t2.Inc(y, -1)
		})
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-RingSTM must commit T1")
	}
	if run(false) {
		t.Error("classic RingSTM must abort T1")
	}
}

func TestIncDeferred(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(100)
	t1 := NewTx(g, true)
	t2 := NewTx(g, true)

	t1.Start()
	t1.Inc(v, 1)
	txtest.MustCommit(t2, func() { t2.Write(v, 500) })
	if txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("inc-only transaction must survive a concurrent write")
	}
	if v.Load() != 501 {
		t.Fatalf("final = %d", v.Load())
	}
}

func TestWriteSkew(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		x, y := core.NewVar(0), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		t2.Start()
		_ = t1.Read(x)
		_ = t2.Read(y)
		t1.Write(y, 1)
		t2.Write(x, 1)
		if txtest.Aborted(func() { t1.Commit() }) {
			t.Fatal("first committer must succeed")
		}
		if !txtest.Aborted(func() { t2.Commit() }) {
			t.Fatalf("semantic=%v: write skew must abort", semantic)
		}
		t2.Cleanup()
	}
}

// TestRingWrapAborts: a transaction that falls ringSize commits behind must
// abort rather than validate against recycled slots.
func TestRingWrapAborts(t *testing.T) {
	g := NewGlobal()
	x := core.NewVar(0)
	old := NewTx(g, true)
	old.Start()
	_ = old.Read(x) // pins a signature and a start point

	w := NewTx(g, true)
	other := core.NewVar(0)
	for i := 0; i < ringSize+2; i++ {
		txtest.MustCommit(w, func() { w.Write(other, int64(i)) })
	}
	if txtest.MustCommitRest(old, func() { old.Write(x, 1) }) {
		t.Fatal("transaction older than the ring must abort")
	}
}

func TestConcurrentCounter(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(0)
		const workers, per = 6, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := newTx(g, semantic)
				for i := 0; i < per; i++ {
					for !txtest.MustCommit(tx, func() { tx.Inc(v, 1) }) {
					}
				}
			}()
		}
		wg.Wait()
		if v.Load() != workers*per {
			t.Fatalf("semantic=%v: counter = %d", semantic, v.Load())
		}
	}
}

func TestDelegationStats(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(5)
	base := newTx(g, false)
	txtest.MustCommit(base, func() {
		_ = base.Cmp(v, core.OpGT, 0)
		base.Inc(v, 1)
	})
	bs := base.AttemptStats()
	if bs.Compares != 0 || bs.Incs != 0 || bs.Reads != 2 || bs.Writes != 1 {
		t.Fatalf("baseline delegation counts: %+v", bs)
	}
}
