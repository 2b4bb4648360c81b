package norec

import (
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// TestCmpSumSurvivesCompensation: the x + y > 0 example of the technical
// report — a concurrent transfer that moves value between the addends keeps
// the sum, so the S-NOrec reader commits while the baseline aborts.
func TestCmpSumSurvivesCompensation(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		x, y, z := core.NewVar(10), core.NewVar(-3), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		if !t1.CmpSum(core.OpGT, 0, []*core.Var{x, y}) {
			t.Fatal("10 + (-3) > 0 must hold")
		}
		txtest.MustCommit(t2, func() {
			t2.Inc(x, -5)
			t2.Inc(y, 5)
		})
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-NOrec must commit: the sum is unchanged")
	}
	if run(false) {
		t.Error("baseline must abort: pinned addend values changed")
	}
}

func TestCmpSumAbortsOnOutcomeFlip(t *testing.T) {
	g := NewGlobal()
	x, y, z := core.NewVar(10), core.NewVar(-3), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	_ = t1.CmpSum(core.OpGT, 0, []*core.Var{x, y})
	txtest.MustCommit(t2, func() { t2.Write(x, -100) })
	if txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("sum flipped negative; the fact is broken")
	}
}

// TestCmpAnySurvivesClauseFlip is the full-strength Algorithm 1: x > 0 || y
// > 0 recorded as ONE fact, so flipping only x negative is harmless.
func TestCmpAnySurvivesClauseFlip(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		x, y, z := core.NewVar(5), core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		ok := t1.CmpAny([]core.Cond{
			{Var: x, Op: core.OpGT, Operand: 0},
			{Var: y, Op: core.OpGT, Operand: 0},
		})
		if !ok {
			t.Fatal("disjunction must hold initially")
		}
		txtest.MustCommit(t2, func() { t2.Write(x, -1) }) // kills clause 1 only
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-NOrec with composed facts must commit: y > 0 carries the OR")
	}
	if run(false) {
		t.Error("baseline must abort")
	}
}

func TestCmpAnyAbortsWhenAllClausesDie(t *testing.T) {
	g := NewGlobal()
	x, y, z := core.NewVar(5), core.NewVar(5), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	_ = t1.CmpAny([]core.Cond{
		{Var: x, Op: core.OpGT, Operand: 0},
		{Var: y, Op: core.OpGT, Operand: 0},
	})
	txtest.MustCommit(t2, func() {
		t2.Write(x, -1)
		t2.Write(y, -1)
	})
	if txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("both clauses died; the OR fact is broken")
	}
}

func TestCmpAnyFalseOutcome(t *testing.T) {
	g := NewGlobal()
	x, y, z := core.NewVar(-5), core.NewVar(-5), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if t1.CmpAny([]core.Cond{
		{Var: x, Op: core.OpGT, Operand: 0},
		{Var: y, Op: core.OpGT, Operand: 0},
	}) {
		t.Fatal("disjunction should be false")
	}
	// A change that keeps the disjunction false is harmless...
	txtest.MustCommit(t2, func() { t2.Write(x, -99) })
	if !txtest.MustCommitRest(t1, func() { t1.Write(z, 1) }) {
		t.Fatal("false outcome preserved; must commit")
	}

	// ...but making any clause true aborts.
	t1.Start()
	if t1.CmpAny([]core.Cond{
		{Var: x, Op: core.OpGT, Operand: 0},
		{Var: y, Op: core.OpGT, Operand: 0},
	}) {
		t.Fatal("disjunction should be false")
	}
	txtest.MustCommit(t2, func() { t2.Write(y, 7) })
	if txtest.MustCommitRest(t1, func() { t1.Write(z, 2) }) {
		t.Fatal("outcome flipped to true; must abort")
	}
}

// TestCmpSumWriteSetDelegation: addends with buffered writes must see the
// transaction's own values.
func TestCmpSumWriteSetDelegation(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(1), core.NewVar(1)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		tx.Write(x, 100)
		if !tx.CmpSum(core.OpGT, 50, []*core.Var{x, y}) {
			t.Fatal("own write must count: 100 + 1 > 50")
		}
	})
}

// TestCmpAnyWriteSetDelegation: clauses over buffered writes degrade to
// per-clause semantics and still see own writes.
func TestCmpAnyWriteSetDelegation(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(-1), core.NewVar(-1)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		tx.Write(x, 5)
		ok := tx.CmpAny([]core.Cond{
			{Var: x, Op: core.OpGT, Operand: 0},
			{Var: y, Op: core.OpGT, Operand: 0},
		})
		if !ok {
			t.Fatal("own write makes clause 1 true")
		}
	})
}

func TestExprStatsCount(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(1), core.NewVar(2)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		_ = tx.CmpSum(core.OpGT, 0, []*core.Var{x, y})
		_ = tx.CmpAny([]core.Cond{{Var: x, Op: core.OpGT, Operand: 0}})
	})
	st := tx.AttemptStats()
	if st.Compares != 2 || st.Reads != 0 {
		t.Fatalf("stats %+v: native expression facts are single compares", st)
	}
}
