package stm_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"semstm/stm"
)

// TestAlgorithmsAgreeSequentially runs identical randomized single-threaded
// scripts — covering every API operation — on every registered engine and
// requires bit-identical observations and final memory. Any divergence in
// delegation, promotion, write-set merging, or expression handling shows up
// as a mismatch against the first algorithm's trace.
func TestAlgorithmsAgreeSequentially(t *testing.T) {
	const (
		vars    = 6
		txns    = 60
		opsPer  = 8
		rngSeed = 12345
	)
	operators := []stm.Op{stm.OpEQ, stm.OpNEQ, stm.OpGT, stm.OpGTE, stm.OpLT, stm.OpLTE}

	type step struct {
		kind    int // 0 read 1 write 2 cmp 3 cmpvars 4 inc 5 cmpsum 6 cmpany
		v, b, c int
		op      stm.Op
		arg     int64
	}
	// One fixed script for every algorithm.
	rng := rand.New(rand.NewSource(rngSeed))
	script := make([][]step, txns)
	for i := range script {
		script[i] = make([]step, opsPer)
		for j := range script[i] {
			script[i][j] = step{
				kind: rng.Intn(7),
				v:    rng.Intn(vars),
				b:    rng.Intn(vars),
				c:    rng.Intn(vars),
				op:   operators[rng.Intn(len(operators))],
				arg:  rng.Int63n(40) - 20,
			}
		}
	}

	run := func(algo stm.Algorithm) (trace []int64, final []int64) {
		rt := stm.New(algo)
		regs := stm.NewVars(vars, 0)
		for _, tvs := range script {
			rt.Atomically(func(tx *stm.Tx) {
				trace = trace[:0] // aborted attempts leave no trace
				for _, s := range tvs {
					switch s.kind {
					case 0:
						trace = append(trace, tx.Read(regs[s.v]))
					case 1:
						tx.Write(regs[s.v], s.arg)
					case 2:
						trace = append(trace, b2i(tx.Cmp(regs[s.v], s.op, s.arg)))
					case 3:
						trace = append(trace, b2i(tx.CmpVars(regs[s.v], s.op, regs[s.b])))
					case 4:
						tx.Inc(regs[s.v], s.arg)
					case 5:
						trace = append(trace, b2i(tx.CmpSum(s.op, s.arg, regs[s.v], regs[s.b], regs[s.c])))
					case 6:
						trace = append(trace, b2i(tx.CmpAny(
							stm.Cond{Var: regs[s.v], Op: s.op, Operand: s.arg},
							stm.Cond{Var: regs[s.b], Op: s.op.Inverse(), Operand: -s.arg},
						)))
					}
				}
			})
		}
		final = make([]int64, vars)
		for i, r := range regs {
			final[i] = r.Load()
		}
		return append([]int64(nil), trace...), final
	}

	algos := stm.Algorithms()
	refTrace, refFinal := run(algos[0])
	for _, a := range algos[1:] {
		trace, final := run(a)
		if !reflect.DeepEqual(final, refFinal) {
			t.Errorf("%v final memory %v, want %v (as %v)", a, final, refFinal, algos[0])
		}
		if !reflect.DeepEqual(trace, refTrace) {
			t.Errorf("%v last-txn trace %v, want %v (as %v)", a, trace, refTrace, algos[0])
		}
	}
}

// TestAlgorithmsAgreeRAWHeavy stresses the promotion semantics of
// Algorithm 6 lines 17–23 under the signature-indexed write-set: every
// transaction chains inc → read → write → inc (plus cmp probes) on the SAME
// variables, so nearly every barrier resolves against a non-empty write-set
// — entry kinds flip Inc→Write via promotion, deltas accumulate over written
// values, and reads must observe the merged entry bit-for-bit identically on
// every registered engine.
func TestAlgorithmsAgreeRAWHeavy(t *testing.T) {
	const (
		vars    = 8
		txns    = 80
		rngSeed = 424242
	)
	rng := rand.New(rand.NewSource(rngSeed))
	type rawTxn struct {
		v1, v2 int
		d1, d2 int64
		w      int64
		probe  int64
	}
	script := make([]rawTxn, txns)
	for i := range script {
		script[i] = rawTxn{
			v1:    rng.Intn(vars),
			v2:    rng.Intn(vars),
			d1:    rng.Int63n(20) - 10,
			d2:    rng.Int63n(20) - 10,
			w:     rng.Int63n(100) - 50,
			probe: rng.Int63n(40) - 20,
		}
	}

	run := func(algo stm.Algorithm) (trace []int64, final []int64) {
		rt := stm.New(algo)
		regs := stm.NewVars(vars, 5)
		for _, s := range script {
			a, b := regs[s.v1], regs[s.v2]
			rt.Atomically(func(tx *stm.Tx) {
				trace = trace[:0]
				tx.Inc(a, s.d1)                   // fresh EntryInc
				trace = append(trace, tx.Read(a)) // promote: Inc → Write
				tx.Write(a, s.w)                  // overwrite promoted entry
				tx.Inc(a, s.d2)                   // accumulate over EntryWrite
				trace = append(trace, tx.Read(a)) // plain RAW hit
				tx.Inc(b, s.d1)
				trace = append(trace, b2i(tx.GT(b, s.probe)))           // cmp promotes b
				trace = append(trace, b2i(tx.CmpVars(a, stm.OpLTE, b))) // both buffered
				tx.Inc(b, -s.d1)
				trace = append(trace, tx.Read(b))
			})
		}
		final = make([]int64, vars)
		for i, r := range regs {
			final[i] = r.Load()
		}
		return append([]int64(nil), trace...), final
	}

	algos := stm.Algorithms()
	refTrace, refFinal := run(algos[0])
	for _, a := range algos[1:] {
		trace, final := run(a)
		if !reflect.DeepEqual(final, refFinal) {
			t.Errorf("%v final memory %v, want %v (as %v)", a, final, refFinal, algos[0])
		}
		if !reflect.DeepEqual(trace, refTrace) {
			t.Errorf("%v last-txn trace %v, want %v (as %v)", a, trace, refTrace, algos[0])
		}
	}
}

// TestRAWHeavyConcurrentInvariant runs the inc→read→write→inc chain from
// many goroutines on every algorithm and checks a closed-form invariant:
// each committed transaction leaves its variable's value unchanged (the
// transaction adds d, reads, restores the read value minus d... net zero),
// so the final memory must equal the initial state no matter how attempts
// interleave or abort.
func TestRAWHeavyConcurrentInvariant(t *testing.T) {
	const (
		vars    = 4
		workers = 4
		perG    = 150
		initial = 1000
	)
	for _, algo := range stm.Algorithms() {
		t.Run(algo.String(), func(t *testing.T) {
			rt := stm.New(algo)
			rt.SetYieldEvery(2)
			regs := stm.NewVars(vars, initial)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < perG; i++ {
						v := regs[rng.Intn(vars)]
						d := rng.Int63n(50) + 1
						rt.Atomically(func(tx *stm.Tx) {
							tx.Inc(v, d)       // pending increment
							cur := tx.Read(v)  // promotes: cur = mem + d
							tx.Write(v, cur-d) // restore original
							tx.Inc(v, 0)       // accumulate on the write
						})
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			for i, r := range regs {
				if got := r.Load(); got != initial {
					t.Errorf("var %d = %d, want %d (promotion lost an update)", i, got, initial)
				}
			}
			if sn := rt.Stats(); sn.Commits != workers*perG {
				t.Errorf("commits = %d, want %d", sn.Commits, workers*perG)
			}
		})
	}
}

// TestComposedAgreeUnderFaults is the composed-expression equivalence sweep:
// a deterministic script dominated by CmpSum and CmpAny (the arithmetic and
// disjunctive composed facts, where the engines differ most — S-NOrec/S-HTM
// hold one composed fact, S-TL2 per-clause facts, classical engines delegate
// to reads) runs on every algorithm under deterministic fault injection at
// all four sites. Injected aborts only force retries, so every engine must
// still produce bit-identical observations and final memory — both against
// the reference engine and against its own fault-free run. This pins down
// that composed-fact re-validation and abort/replay paths cannot change the
// value semantics of the composed operators.
func TestComposedAgreeUnderFaults(t *testing.T) {
	const (
		vars    = 5
		txns    = 50
		rngSeed = 777
	)
	operators := []stm.Op{stm.OpEQ, stm.OpNEQ, stm.OpGT, stm.OpGTE, stm.OpLT, stm.OpLTE}
	type comboTxn struct {
		v1, v2, v3 int
		op1, op2   stm.Op
		rhs, d, w  int64
	}
	rng := rand.New(rand.NewSource(rngSeed))
	script := make([]comboTxn, txns)
	for i := range script {
		script[i] = comboTxn{
			v1:  rng.Intn(vars),
			v2:  rng.Intn(vars),
			v3:  rng.Intn(vars),
			op1: operators[rng.Intn(len(operators))],
			op2: operators[rng.Intn(len(operators))],
			rhs: rng.Int63n(60) - 30,
			d:   rng.Int63n(20) - 10,
			w:   rng.Int63n(40) - 20,
		}
	}

	run := func(algo stm.Algorithm, faults bool) (trace []int64, final []int64) {
		rt := stm.New(algo)
		if faults {
			rt.SetFaultPlan(stm.NewFaultPlan(0xC0FFEE).
				WithSpurious(stm.SiteStart, 2).
				WithSpurious(stm.SiteRead, 4).
				WithSpurious(stm.SiteCmp, 4).
				WithSpurious(stm.SiteCommit, 8).
				WithValidationFail(8))
		}
		regs := stm.NewVars(vars, 3)
		for _, s := range script {
			a, b, c := regs[s.v1], regs[s.v2], regs[s.v3]
			rt.Atomically(func(tx *stm.Tx) {
				trace = trace[:0] // aborted attempts leave no trace
				trace = append(trace, b2i(tx.CmpSum(s.op1, s.rhs, a, b, c)))
				tx.Inc(a, s.d)
				// Same sum shifted by the pending increment: exercises
				// composed facts over buffered state.
				trace = append(trace, b2i(tx.CmpSum(s.op1, s.rhs+s.d, a, b, c)))
				trace = append(trace, b2i(tx.CmpAny(
					stm.Cond{Var: a, Op: s.op1, Operand: s.rhs},
					stm.Cond{Var: b, Op: s.op2, Operand: s.w},
					stm.Cond{Var: c, Op: s.op2.Inverse(), Operand: s.w},
				)))
				tx.Write(b, s.w)
				trace = append(trace, b2i(tx.CmpAny(
					stm.Cond{Var: b, Op: stm.OpEQ, Operand: s.w},
				)))
				trace = append(trace, b2i(tx.CmpSum(s.op2, s.rhs, a, b)))
				tx.Inc(c, -s.d)
			})
		}
		final = make([]int64, vars)
		for i, r := range regs {
			final[i] = r.Load()
		}
		return append([]int64(nil), trace...), final
	}

	algos := stm.Algorithms()
	refTrace, refFinal := run(algos[0], false)
	for _, a := range algos {
		for _, faults := range []bool{false, true} {
			trace, final := run(a, faults)
			if !reflect.DeepEqual(final, refFinal) {
				t.Errorf("%v (faults=%v) final memory %v, want %v (as %v fault-free)",
					a, faults, final, refFinal, algos[0])
			}
			if !reflect.DeepEqual(trace, refTrace) {
				t.Errorf("%v (faults=%v) last-txn trace %v, want %v (as %v fault-free)",
					a, faults, trace, refTrace, algos[0])
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestOpInverseExported sanity-checks the exported operator helpers used by
// the equivalence script.
func TestOpInverseExported(t *testing.T) {
	if stm.OpGT.Inverse() != stm.OpLTE {
		t.Fatal("inverse")
	}
	if !stm.OpGTE.Eval(3, 3) {
		t.Fatal("eval")
	}
}
