package norec

import (
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// newTx builds an S-NOrec descriptor, or — when semantic is false — the NOrec
// baseline: the same descriptor behind core.Baseline, exactly as the stm
// facade binds the registered NOrec engine.
func newTx(g *Global, semantic bool) core.TxImpl {
	if semantic {
		return NewTx(g)
	}
	return core.Baseline{TxImpl: NewTx(g)}
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
			t.Fatalf("semantic=%v: memory = %d after commit", semantic, v.Load())
		}
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(1)
		tx := newTx(g, semantic)
		txtest.MustCommit(tx, func() {
			tx.Write(v, 7)
			if got := tx.Read(v); got != 7 {
				t.Fatalf("semantic=%v: RAW = %d", semantic, got)
			}
			if v.Load() != 1 {
				t.Fatal("write must be buffered, not in place")
			}
		})
	}
}

func TestIncDeferredUntilCommit(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(10)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		tx.Inc(v, 5)
		tx.Inc(v, -2)
		if v.Load() != 10 {
			t.Fatal("inc must not touch memory before commit")
		}
		// No read was performed: the read-set must be empty, which is the
		// whole point of the deferred increment.
		if tx.ReadSetLen() != 0 {
			t.Fatalf("read-set has %d entries", tx.ReadSetLen())
		}
	})
	if v.Load() != 13 {
		t.Fatalf("after commit: %d, want 13", v.Load())
	}
}

// TestIncAppliesConcurrentDelta is the concurrency win of TM_INC: a writer
// that changes the variable *between* the inc and the commit does not abort
// the incrementing transaction, and the delta lands on the fresh value.
func TestIncAppliesConcurrentDelta(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(100)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	t1.Inc(v, 1)

	if !txtest.MustCommit(t2, func() { t2.Write(v, 500) }) {
		t.Fatal("t2 must commit")
	}

	if txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("S-NOrec inc-only transaction must survive a concurrent write")
	}
	if v.Load() != 501 {
		t.Fatalf("final = %d, want 501 (delta on fresh value)", v.Load())
	}
}

// TestIncAbortsUnderBaseline contrasts the previous test: baseline NOrec
// turns the inc into read+write, so the concurrent writer kills it.
func TestIncAbortsUnderBaseline(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(100)
	t1 := core.Baseline{TxImpl: NewTx(g)}
	t2 := core.Baseline{TxImpl: NewTx(g)}

	t1.Start()
	t1.Inc(v, 1) // delegates to Read + Write: pins value 100

	txtest.MustCommit(t2, func() { t2.Write(v, 500) })

	if !txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("baseline NOrec must abort: read-set value changed")
	}
	t1.Cleanup()
}

func TestIncPromotionOnRead(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(10)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		tx.Inc(v, 3)
		if got := tx.Read(v); got != 13 {
			t.Fatalf("promoted read = %d, want 13", got)
		}
		if tx.AttemptStats().Promotes != 1 {
			t.Fatalf("promotes = %d", tx.AttemptStats().Promotes)
		}
		// After promotion the entry is a plain write and the read-set now
		// pins the exact pre-image (Algorithm 6 lines 19-21).
		if tx.ReadSetLen() != 1 {
			t.Fatalf("read-set = %d entries", tx.ReadSetLen())
		}
	})
	if v.Load() != 13 {
		t.Fatalf("after commit: %d", v.Load())
	}
}

// TestPromotedIncPinsValue: once promoted, a concurrent writer aborts the
// transaction even under S-NOrec, because the promotion recorded an EQ fact.
func TestPromotedIncPinsValue(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(10)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	t1.Inc(v, 3)
	_ = t1.Read(v) // promotes

	txtest.MustCommit(t2, func() { t2.Write(v, 99) })

	if !txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("promoted inc must behave like read+write")
	}
	t1.Cleanup()
}

// TestPaperAlgorithm1 reproduces the motivating example: T1 checks x>0 and
// y>0; T2 increments x and decrements y and commits in between. The
// conditional outcomes still hold, so S-NOrec commits T1 while baseline
// NOrec aborts it — a "false conflict" at the semantic level.
func TestPaperAlgorithm1(t *testing.T) {
	run := func(semantic bool) (committed bool, final int64) {
		g := NewGlobal()
		x, y, z := core.NewVar(5), core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		ok1 := t1.Cmp(x, core.OpGT, 0)
		ok2 := t1.Cmp(y, core.OpGT, 0)
		if !ok1 || !ok2 {
			t.Fatal("initial conditions must hold")
		}

		txtest.MustCommit(t2, func() {
			t2.Inc(x, 1)
			t2.Inc(y, -1)
		})

		committed = txtest.Step(t1, func() { t1.Write(z, 1) }) &&
			!txtest.Aborted(func() { t1.Commit() })
		if !committed {
			t1.Cleanup()
		}
		return committed, z.Load()
	}

	if ok, z := run(true); !ok || z != 1 {
		t.Errorf("S-NOrec: committed=%v z=%d, want commit with z=1", ok, z)
	}
	if ok, _ := run(false); ok {
		t.Error("baseline NOrec must abort T1 (value-based validation)")
	}
}

// TestPaperAlgorithm8 reproduces the opaque history of Algorithm 8: T1 does
// cmp(x>=0), T2 commits x=1,y=1, then T1 reads y and writes z. With the
// semantic API the history is opaque with serialization T2 -> T1, so S-NOrec
// commits and T1 must observe y=1.
func TestPaperAlgorithm8(t *testing.T) {
	g := NewGlobal()
	x, y, z := core.NewVar(0), core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if !t1.Cmp(x, core.OpGTE, 0) {
		t.Fatal("x >= 0 must hold")
	}

	txtest.MustCommit(t2, func() {
		t2.Write(x, 1)
		t2.Write(y, 1)
	})

	var yv int64
	if !txtest.Step(t1, func() { yv = t1.Read(y) }) {
		t.Fatal("S-NOrec must survive: the cmp fact x>=0 still holds")
	}
	if yv != 1 {
		t.Fatalf("T1 read y = %d; serialized after T2 it must see 1", yv)
	}
	if !txtest.MustCommitRest(t1, func() { t1.Write(z, yv) }) {
		t.Fatal("T1 must commit")
	}
	if z.Load() != 1 {
		t.Fatalf("z = %d", z.Load())
	}

	// Baseline NOrec aborts at the read of y: the read of x pinned value 0.
	g2 := NewGlobal()
	x2, y2 := core.NewVar(0), core.NewVar(0)
	b1 := core.Baseline{TxImpl: NewTx(g2)}
	b2 := core.Baseline{TxImpl: NewTx(g2)}
	b1.Start()
	_ = b1.Cmp(x2, core.OpGTE, 0)
	txtest.MustCommit(b2, func() {
		b2.Write(x2, 1)
		b2.Write(y2, 1)
	})
	if txtest.Step(b1, func() { _ = b1.Read(y2) }) {
		t.Fatal("baseline NOrec must abort on the read of y")
	}
}

// TestPaperAlgorithm9 reproduces the non-opaque history of Algorithm 9: T1
// reads y (=0), T2 commits x=1,y=1, then T1 evaluates cmp(x>=1). Committing
// would be inconsistent with the earlier read of y, so even S-NOrec must
// abort at the cmp.
func TestPaperAlgorithm9(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if got := t1.Read(y); got != 0 {
		t.Fatalf("read y = %d", got)
	}

	txtest.MustCommit(t2, func() {
		t2.Write(x, 1)
		t2.Write(y, 1)
	})

	if txtest.Step(t1, func() { _ = t1.Cmp(x, core.OpGTE, 1) }) {
		t.Fatal("S-NOrec must abort: cmp after an invalidated read breaks opacity")
	}
}

// TestCmpFalseOutcomeValidated checks the inverse-operator encoding end to
// end: a condition observed false keeps the transaction valid only while it
// stays false.
func TestCmpFalseOutcomeValidated(t *testing.T) {
	g := NewGlobal()
	x, z := core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if t1.Cmp(x, core.OpGT, 10) {
		t.Fatal("condition should be false")
	}

	// A write that keeps the condition false is harmless...
	txtest.MustCommit(t2, func() { t2.Write(x, 5) })
	if !txtest.Step(t1, func() { t1.Write(z, 1) }) ||
		txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("false-outcome fact still holds; T1 must commit")
	}

	// ...but one that flips it to true aborts the reader.
	t1.Start()
	if t1.Cmp(x, core.OpGT, 10) {
		t.Fatal("condition should be false")
	}
	txtest.MustCommit(t2, func() { t2.Write(x, 50) })
	t1.Write(z, 2)
	if !txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("flipped outcome must abort")
	}
	t1.Cleanup()
}

// TestWriteSkewAborted: NOrec's global validation forbids write skew.
func TestWriteSkewAborted(t *testing.T) {
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
			t.Fatalf("semantic=%v: write skew must abort the second committer", semantic)
		}
		t2.Cleanup()
	}
}

func TestReadOnlyCommitLeavesLockAlone(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(3)
	tx := NewTx(g)
	before := g.Sequence()
	txtest.MustCommit(tx, func() {
		_ = tx.Read(v)
		_ = tx.Cmp(v, core.OpGT, 0)
	})
	if g.Sequence() != before {
		t.Fatal("read-only commit must not advance the sequence lock")
	}
}

func TestSequenceLockParity(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	tx := NewTx(g)
	for i := 0; i < 5; i++ {
		txtest.MustCommit(tx, func() { tx.Write(v, int64(i)) })
	}
	if seq := g.Sequence(); seq != 10 {
		t.Fatalf("sequence = %d, want 10 (two ticks per writer commit)", seq)
	}
	if g.Sequence()&1 != 0 {
		t.Fatal("lock must be released (even)")
	}
}

func TestDelegationStats(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(5)

	base := core.Baseline{TxImpl: NewTx(g)}
	txtest.MustCommit(base, func() {
		_ = base.Cmp(v, core.OpGT, 0)
		base.Inc(v, 1)
	})
	bs := base.AttemptStats()
	if bs.Compares != 0 || bs.Incs != 0 {
		t.Fatalf("baseline must delegate: %+v", bs)
	}
	if bs.Reads != 2 || bs.Writes != 1 {
		t.Fatalf("baseline delegation counts: %+v (want 2 reads, 1 write)", bs)
	}

	sem := NewTx(g)
	txtest.MustCommit(sem, func() {
		_ = sem.Cmp(v, core.OpGT, 0)
		sem.Inc(v, 1)
	})
	ss := sem.AttemptStats()
	if ss.Compares != 1 || ss.Incs != 1 || ss.Reads != 0 || ss.Writes != 0 {
		t.Fatalf("semantic counts: %+v", ss)
	}
}

func TestCmpVarsNativeFact(t *testing.T) {
	g := NewGlobal()
	a, b := core.NewVar(3), core.NewVar(7)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		if tx.CmpVars(a, core.OpLT, b) != true {
			t.Fatal("3 < 7")
		}
		if tx.CmpVars(b, core.OpLT, a) != false {
			t.Fatal("!(7 < 3)")
		}
	})
	st := tx.AttemptStats()
	if st.Reads != 0 || st.Compares != 2 {
		t.Fatalf("stats %+v: clean CmpVars is a single compare, no reads", st)
	}
}

// TestCmpVarsSurvivesDualUpdate is the queue head/tail scenario: both
// variables change but the recorded two-address fact (head != tail) still
// holds, so the semantic transaction commits while the baseline aborts.
func TestCmpVarsSurvivesDualUpdate(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		head, tail, z := core.NewVar(2), core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		if t1.CmpVars(head, core.OpEQ, tail) {
			t.Fatal("queue should be non-empty")
		}
		// A concurrent enqueue+dequeue moves both cursors.
		txtest.MustCommit(t2, func() {
			t2.Inc(head, 1)
			t2.Inc(tail, 1)
		})
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-NOrec must commit: head != tail still holds")
	}
	if run(false) {
		t.Error("baseline NOrec must abort: pinned cursor values changed")
	}
}

// TestCmpVarsAbortsOnOutcomeFlip: when the dual update flips the outcome
// (queue becomes empty), even the semantic build must abort.
func TestCmpVarsAbortsOnOutcomeFlip(t *testing.T) {
	g := NewGlobal()
	head, tail, z := core.NewVar(4), core.NewVar(5), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if t1.CmpVars(head, core.OpEQ, tail) {
		t.Fatal("queue should be non-empty")
	}
	txtest.MustCommit(t2, func() { t2.Inc(head, 1) }) // now head == tail
	if txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("fact head != tail was broken; T1 must abort")
	}
}

// TestCmpVarsWriteSetFallback: a buffered write on either operand forces the
// value-based path so the comparison sees the transaction's own writes.
func TestCmpVarsWriteSetFallback(t *testing.T) {
	g := NewGlobal()
	a, b := core.NewVar(3), core.NewVar(7)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		tx.Write(a, 9)
		if !tx.CmpVars(a, core.OpGT, b) {
			t.Fatal("own write a=9 must be visible: 9 > 7")
		}
		tx.Write(b, 20)
		if tx.CmpVars(a, core.OpGT, b) {
			t.Fatal("own write b=20 must be visible: !(9 > 20)")
		}
	})
}

// TestReadAfterReadDuplicates: the paper deliberately appends one entry per
// read rather than de-duplicating.
func TestReadAfterReadDuplicates(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(1)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		_ = tx.Read(v)
		_ = tx.Read(v)
		_ = tx.Cmp(v, core.OpGT, 0)
		if tx.ReadSetLen() != 3 {
			t.Fatalf("read-set = %d entries, want 3 (no dedup)", tx.ReadSetLen())
		}
	})
}
