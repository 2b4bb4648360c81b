package stm

import (
	"reflect"
	"sync"
	"testing"

	"semstm/internal/core"
	"semstm/internal/wal"
)

// delegationBody runs every semantic primitive once over a=5, b=7, c=9. Bound
// to a baseline engine, the facade turns it into 11 reads and 2 writes:
// Cmp 1, GT 1, CmpVars 2, CmpSum 3, CmpAny 2 (first clause false), Inc 1+1,
// Dec 1+1.
func delegationBody(a, b, c *Var) func(tx *Tx) {
	return func(tx *Tx) {
		tx.Cmp(a, OpGT, 0)
		tx.GT(b, 0)
		tx.CmpVars(a, OpLT, b)
		tx.CmpSum(OpGT, 0, a, b, c)
		tx.CmpAny(Cond{Var: a, Op: OpLT, Operand: 0}, Cond{Var: b, Op: OpGT, Operand: 0})
		tx.Inc(c, 2)
		tx.Dec(c, 1)
	}
}

// checkDelegated asserts one committed run of delegationBody was delegated.
func checkDelegated(t *testing.T, name string, d Snapshot, c *Var) {
	t.Helper()
	if d.Commits != 1 || d.Aborts != 0 {
		t.Fatalf("%s: commits=%d aborts=%d, want one clean commit", name, d.Commits, d.Aborts)
	}
	if d.Compares != 0 || d.Incs != 0 || d.Reads != 11 || d.Writes != 2 {
		t.Fatalf("%s: compares=%d incs=%d reads=%d writes=%d, want 0/0/11/2",
			name, d.Compares, d.Incs, d.Reads, d.Writes)
	}
	if got := c.Load(); got != 10 {
		t.Fatalf("%s: c = %d, want 10", name, got)
	}
}

// TestBaselineDelegation pins the facade's delegation: every revocable engine
// registered with Semantic false records no compares and no increments, only
// the reads and writes its classical barriers performed. SGL, the one
// irrevocable non-semantic engine, evaluates the primitives in place and
// keeps counting them natively.
func TestBaselineDelegation(t *testing.T) {
	for _, algo := range Algorithms() {
		desc, _ := core.EngineFor(algo)
		if desc.Semantic || desc.Composite {
			continue
		}
		rt := New(algo)
		rt.ConfigureHTM(64, 4, 0)
		a, b, c := NewVar(5), NewVar(7), NewVar(9)
		rt.Atomically(delegationBody(a, b, c))
		d := rt.Stats()
		if desc.Irrevocable {
			if d.Compares != 5 || d.Incs != 2 || d.Reads != 0 || d.Writes != 0 {
				t.Errorf("%s: compares=%d incs=%d reads=%d writes=%d, want in-place 5/2/0/0",
					desc.Name, d.Compares, d.Incs, d.Reads, d.Writes)
			}
			continue
		}
		checkDelegated(t, desc.Name, d, c)
	}
}

// TestAdaptiveRebindDelegates switches an Adaptive runtime onto a baseline
// rung and back: the delegation follows the bound engine.
func TestAdaptiveRebindDelegates(t *testing.T) {
	rt := New(Adaptive)
	rt.SetAdaptiveConfig(AdaptiveConfig{Epoch: -1})
	if err := rt.SwitchEngine(NOrec); err != nil {
		t.Fatal(err)
	}
	a, b, c := NewVar(5), NewVar(7), NewVar(9)
	before := rt.Stats()
	rt.Atomically(delegationBody(a, b, c))
	checkDelegated(t, "Adaptive on NOrec", rt.Stats().Sub(before), c)

	if err := rt.SwitchEngine(SNOrec); err != nil {
		t.Fatal(err)
	}
	before = rt.Stats()
	rt.Atomically(delegationBody(a, b, c))
	if d := rt.Stats().Sub(before); d.Compares != 5 || d.Incs != 2 {
		t.Fatalf("Adaptive on S-NOrec: compares=%d incs=%d, want native 5/2", d.Compares, d.Incs)
	}
}

// recordingLogger is a durable redo sink that keeps every appended record.
type recordingLogger struct {
	mu   sync.Mutex
	recs []wal.Record
}

func (l *recordingLogger) LogSingle(_ int, recs []wal.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, recs...)
	return nil
}

func (l *recordingLogger) LogCross(_ []int, recs [][]wal.Record) error {
	for _, r := range recs {
		l.LogSingle(0, r)
	}
	return nil
}

// TestDurableBaselineLogsEngineOps: delegation happens above the sharded
// engine, so a durable baseline logs what its engine actually did — an
// increment is the absolute OpWrite of its read+write, and a comparison is a
// plain read that logs no OpFact. The semantic engines keep logging the delta
// and the fact.
func TestDurableBaselineLogsEngineOps(t *testing.T) {
	const key = 7
	fact := wal.FactRecord(key, OpGT, 0, true)
	inc := wal.Record{Op: wal.OpInc, Key: key, Val: 5}
	write := wal.Record{Op: wal.OpWrite, Key: key, Val: 15}
	for _, c := range []struct {
		algo Algorithm
		want []wal.Record
	}{
		{NOrec, []wal.Record{write}},
		{TL2, []wal.Record{write}},
		{SNOrec, []wal.Record{fact, inc}},
		{STL2, []wal.Record{fact, inc}},
	} {
		log := &recordingLogger{}
		rt := newRuntime(c.algo, 2, log, true)
		x := core.NewVarDurable(1, key, 10)
		rt.Atomically(func(tx *Tx) {
			if tx.GT(x, 0) {
				tx.Inc(x, 5)
			}
		})
		if !reflect.DeepEqual(log.recs, c.want) {
			t.Errorf("%v logged %+v, want %+v", c.algo, log.recs, c.want)
		}
		if x.Load() != 15 {
			t.Errorf("%v: x = %d, want 15", c.algo, x.Load())
		}
	}
}
