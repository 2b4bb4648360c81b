package stm_test

import (
	"sync"
	"testing"

	"semstm/stm"
)

// TestReadDedupPreservesSemantics: the de-duplication ablation knob must not
// change observable behaviour, only read-set size.
func TestReadDedupPreservesSemantics(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		rt := stm.New(stm.SNOrec)
		rt.SetReadDedup(dedup)
		v := stm.NewVar(10)
		w := stm.NewVar(0)
		got := stm.Run(rt, func(tx *stm.Tx) int64 {
			a := tx.Read(v)
			b := tx.Read(v) // duplicate read
			c := tx.Read(v)
			tx.Write(w, a+b+c)
			return a + b + c
		})
		if got != 30 || w.Load() != 30 {
			t.Fatalf("dedup=%v: got %d, w=%d", dedup, got, w.Load())
		}
	}
}

func TestReadDedupUnderConcurrency(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	rt.SetReadDedup(true)
	c := stm.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				rt.Atomically(func(tx *stm.Tx) {
					// read-modify-write with redundant reads
					a := tx.Read(c)
					_ = tx.Read(c)
					tx.Write(c, a+1)
				})
			}
		}()
	}
	wg.Wait()
	if c.Load() != 6*300 {
		t.Fatalf("counter = %d", c.Load())
	}
}

// TestNoExtendStillCorrect: disabling S-TL2's phase-1 extension only loses
// performance, never correctness.
func TestNoExtendStillCorrect(t *testing.T) {
	rt := stm.New(stm.STL2)
	rt.SetNoExtend(true)
	accts := stm.NewVars(16, 100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := seed
			for i := 0; i < 400; i++ {
				r = r*6364136223846793005 + 1442695040888963407
				from := accts[uint64(r>>33)%16]
				r = r*6364136223846793005 + 1442695040888963407
				to := accts[uint64(r>>33)%16]
				rt.Atomically(func(tx *stm.Tx) {
					if tx.GTE(from, 5) {
						tx.Dec(from, 5)
						tx.Inc(to, 5)
					}
				})
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	var sum int64
	for _, a := range accts {
		if a.Load() < 0 {
			t.Fatal("negative balance")
		}
		sum += a.Load()
	}
	if sum != 1600 {
		t.Fatalf("sum = %d", sum)
	}
}

// TestBackoffPoliciesCorrect: every contention-management policy still
// produces correct results under contention.
func TestBackoffPoliciesCorrect(t *testing.T) {
	for _, p := range []stm.BackoffPolicy{stm.BackoffExp, stm.BackoffYield, stm.BackoffNone} {
		rt := stm.New(stm.NOrec)
		rt.SetBackoff(p)
		rt.SetYieldEvery(2)
		c := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					rt.Atomically(func(tx *stm.Tx) { tx.Write(c, tx.Read(c)+1) })
				}
			}()
		}
		wg.Wait()
		if c.Load() != 6*200 {
			t.Fatalf("policy %d: counter = %d", p, c.Load())
		}
	}
}

// TestConfigureHTMThroughRuntime: capacity tuning reaches the hardware path
// and the fallback statistics surface.
func TestConfigureHTMThroughRuntime(t *testing.T) {
	rt := stm.New(stm.HTM)
	rt.ConfigureHTM(8, 1, 0)
	vars := stm.NewVars(32, 0)
	rt.Atomically(func(tx *stm.Tx) {
		for i, v := range vars {
			tx.Write(v, int64(i))
		}
	})
	fallbacks, hwAborts := rt.HTMStats()
	if fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1 (32 writes >> capacity 8)", fallbacks)
	}
	if hwAborts == 0 {
		t.Fatal("no hardware aborts recorded")
	}
	for i, v := range vars {
		if v.Load() != int64(i) {
			t.Fatalf("write %d lost", i)
		}
	}
	// Non-HTM runtimes report zeros.
	if f, h := stm.New(stm.NOrec).HTMStats(); f != 0 || h != 0 {
		t.Fatal("non-HTM runtime must report zero HTM stats")
	}
}

// TestConfigureHTMZeroCapacity pins what a capacity of zero means: the
// hardware fits no location, so every hardware attempt fails with a capacity
// abort. Classic HTM spends its retry budget and falls back to the lock; the
// progressive engines demote straight down to the unbounded software path.
func TestConfigureHTMZeroCapacity(t *testing.T) {
	const retries = 2
	for _, tc := range []struct {
		algo      stm.Algorithm
		reason    stm.AbortReason
		hwAborts  uint64
		fallbacks uint64
	}{
		{stm.HTM, stm.AbortCapacity, retries + 1, 1},
		{stm.SHTM, stm.AbortCapacity, retries + 1, 1},
		{stm.HyTM, stm.AbortHWCapacity, 2, 0},    // fast, then middle
		{stm.HyTMMid, stm.AbortHWCapacity, 1, 0}, // middle only
	} {
		rt := stm.New(tc.algo)
		rt.ConfigureHTM(0, retries, 0)
		x := stm.NewVar(1)
		rt.Atomically(func(tx *stm.Tx) { tx.Write(x, tx.Read(x)+1) })
		if x.Load() != 2 {
			t.Fatalf("%v: x = %d, want 2", tc.algo, x.Load())
		}
		fallbacks, hwAborts := rt.HTMStats()
		if hwAborts != tc.hwAborts || fallbacks != tc.fallbacks {
			t.Fatalf("%v: hwAborts = %d fallbacks = %d, want %d and %d",
				tc.algo, hwAborts, fallbacks, tc.hwAborts, tc.fallbacks)
		}
		if sn := rt.Stats(); sn.Aborts != tc.hwAborts || sn.AbortReasons[tc.reason] != tc.hwAborts {
			t.Fatalf("%v: aborts = %d (%v), want %d capacity aborts",
				tc.algo, sn.Aborts, sn.AbortReasons, tc.hwAborts)
		}
	}
}

// TestExpressionAPIAcrossAlgorithms: CmpSum/CmpAny agree with the classical
// evaluation on every algorithm (native or delegated).
func TestExpressionAPIAcrossAlgorithms(t *testing.T) {
	for _, a := range stm.Algorithms() {
		rt := stm.New(a)
		x, y := stm.NewVar(7), stm.NewVar(-3)
		rt.Atomically(func(tx *stm.Tx) {
			if !tx.CmpSum(stm.OpGT, 0, x, y) {
				t.Errorf("%v: 7-3 > 0", a)
			}
			if tx.CmpSum(stm.OpGT, 10, x, y) {
				t.Errorf("%v: !(4 > 10)", a)
			}
			if !tx.CmpAny(
				stm.Cond{Var: x, Op: stm.OpLT, Operand: 0},
				stm.Cond{Var: y, Op: stm.OpLT, Operand: 0},
			) {
				t.Errorf("%v: y < 0 clause must carry", a)
			}
			if tx.CmpAny(stm.Cond{Var: x, Op: stm.OpLT, Operand: 0}) {
				t.Errorf("%v: single false clause", a)
			}
		})
	}
}

// TestYieldEveryCorrectness: the interleave simulation must not affect
// results.
func TestYieldEveryCorrectness(t *testing.T) {
	rt := stm.New(stm.STL2)
	rt.SetYieldEvery(1) // yield on every single operation
	c := stm.NewVar(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt.Atomically(func(tx *stm.Tx) { tx.Inc(c, 1) })
			}
		}()
	}
	wg.Wait()
	if c.Load() != 800 {
		t.Fatalf("counter = %d", c.Load())
	}
}
