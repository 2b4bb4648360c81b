package stm_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semstm/stm"
)

// chaosPlan arms every injection class: spurious aborts at all four sites
// (>=10% at commit), forced validation failures, and commit-window delays.
func chaosPlan(seed uint64) *stm.FaultPlan {
	return stm.NewFaultPlan(seed).
		WithSpurious(stm.SiteStart, 2).
		WithSpurious(stm.SiteRead, 5).
		WithSpurious(stm.SiteCmp, 5).
		WithSpurious(stm.SiteCommit, 10).
		WithValidationFail(10).
		WithCommitDelay(1, 20*time.Microsecond)
}

// chaosScale returns (workers, perWorker): a quick configuration for -short
// and the heavy sweep otherwise.
func chaosScale(t *testing.T) (int, int) {
	if testing.Short() {
		return 4, 150
	}
	return 8, 600
}

// TestChaosBankConservation runs concurrent bank transfers under full fault
// injection on every algorithm and asserts the linearizability proxy (total
// balance conserved), completion (Atomically always commits eventually —
// through escalation if starved), and cleanliness (no lock or orec leaked).
func TestChaosBankConservation(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		workers, per := chaosScale(t)
		rt.SetFaultPlan(chaosPlan(0xC4405))
		rt.SetEscalateAfter(64) // low threshold: let escalation fire under chaos
		const accounts, initial = 16, 1000
		accts := stm.NewVars(accounts, initial)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := seed
				next := func(n int64) int64 {
					r = r*6364136223846793005 + 1442695040888963407
					v := (r >> 33) % n
					if v < 0 {
						v += n
					}
					return v
				}
				for i := 0; i < per; i++ {
					from := accts[next(accounts)]
					to := accts[next(accounts)]
					amt := next(50) + 1
					rt.Atomically(func(tx *stm.Tx) {
						if tx.GTE(from, amt) {
							tx.Inc(from, -amt)
							tx.Inc(to, amt)
						}
					})
				}
			}(int64(w) + 1)
		}
		wg.Wait()
		var sum int64
		for _, a := range accts {
			sum += a.Load()
		}
		if sum != accounts*initial {
			t.Fatalf("balance not conserved under faults: %d, want %d", sum, accounts*initial)
		}
		sn := rt.Stats()
		if want := uint64(workers * per); sn.Commits != want {
			t.Fatalf("commits = %d, want %d", sn.Commits, want)
		}
		if sn.Aborts == 0 {
			t.Fatal("fault plan injected nothing")
		}
		var reasonSum uint64
		for _, n := range sn.AbortReasons {
			reasonSum += n
		}
		if reasonSum != sn.Aborts {
			t.Fatalf("reason buckets (%d) do not account for all aborts (%d)", reasonSum, sn.Aborts)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChaosCounterExact asserts the stronger linearizability proxy — an
// exact final counter — under fault injection plus a panicking bystander.
func TestChaosCounterExact(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		workers, per := chaosScale(t)
		rt.SetFaultPlan(chaosPlan(0xC0FFEE))
		rt.SetEscalateAfter(64)
		c := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					rt.Atomically(func(tx *stm.Tx) { tx.Inc(c, 1) })
				}
			}()
		}
		wg.Add(1)
		go func() { // user panics must not corrupt anything under injection
			defer wg.Done()
			for i := 0; i < 25; i++ {
				func() {
					defer func() { recover() }()
					rt.Atomically(func(tx *stm.Tx) {
						tx.Read(c)
						panic("chaos bystander")
					})
				}()
			}
		}()
		wg.Wait()
		if got := c.Load(); got != int64(workers*per) {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChaosTryAtomically verifies the bounded API under injection: every
// call either commits or returns a typed *AbortError, and the final counter
// equals exactly the number of commits.
func TestChaosTryAtomically(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		workers, per := chaosScale(t)
		rt.SetFaultPlan(chaosPlan(0x7EA))
		rt.SetEscalateAfter(0) // force budget exhaustion to surface as errors
		c := stm.NewVar(0)
		var committed, failed atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					err := rt.TryAtomically(func(tx *stm.Tx) { tx.Inc(c, 1) }, stm.MaxAttempts(3))
					if err == nil {
						committed.Add(1)
						continue
					}
					var ae *stm.AbortError
					if !errors.As(err, &ae) {
						t.Errorf("untyped error: %v (%T)", err, err)
						return
					}
					if ae.Attempts != 3 || len(ae.Reasons) != 3 {
						t.Errorf("malformed AbortError: %+v", ae)
						return
					}
					failed.Add(1)
				}
			}()
		}
		wg.Wait()
		if got := c.Load(); got != committed.Load() {
			t.Fatalf("counter = %d but %d commits reported", got, committed.Load())
		}
		if committed.Load()+failed.Load() != int64(workers*per) {
			t.Fatal("lost calls")
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChaosHybridPaths storms the progressive HyTM engine's hardware paths
// specifically: a fault plan firing spurious aborts mid-commit, a high
// simulated spurious rate, and a tracking capacity small enough that real
// transactions overflow it — so every demotion edge (fast→middle on
// conflict/spurious budget, →middle and →slow on capacity) is exercised
// under -race. Asserts conservation, exact commit accounting, that every
// abort lands in a valid typed bucket, and that the per-path commit counters
// stay consistent with the engine's configuration.
func TestChaosHybridPaths(t *testing.T) {
	for _, algo := range []stm.Algorithm{stm.HyTM, stm.HyTMMid} {
		t.Run(algo.String(), func(t *testing.T) {
			workers, per := chaosScale(t)
			rt := stm.New(algo)
			// Capacity 6: the 3-location transfers fit every path, while the
			// 16-addend audit sweep overflows the uninstrumented fast path
			// (16 tracked reads) but fits the middle path as a single
			// composed fact — the demotion edge the paper's primitives are
			// for. 20% simulated spurious commit failures on top of the
			// injected mid-commit aborts.
			rt.ConfigureHTM(6, 2, 20)
			rt.SetFaultPlan(stm.NewFaultPlan(0xB0B).
				WithSpurious(stm.SiteCommit, 15).
				WithSpurious(stm.SiteRead, 3).
				WithValidationFail(5).
				WithCommitDelay(1, 20*time.Microsecond))
			rt.SetEscalateAfter(64)
			const accounts, initial = 16, 1000
			accts := stm.NewVars(accounts, initial)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := seed
					next := func(n int64) int64 {
						r = r*6364136223846793005 + 1442695040888963407
						v := (r >> 33) % n
						if v < 0 {
							v += n
						}
						return v
					}
					for i := 0; i < per; i++ {
						if i%8 == 7 {
							// Audit sweep: footprint 16 on the fast path,
							// one expression fact on the instrumented paths.
							rt.Atomically(func(tx *stm.Tx) {
								if !tx.CmpSum(stm.OpGTE, 0, accts...) {
									t.Error("audit sweep saw a negative total")
								}
							})
							continue
						}
						if i%16 == 3 {
							// Batch rebalance: 8 distinct write entries
							// overflow capacity 6 on *both* hardware paths,
							// forcing the demotion chain down to the
							// unbounded software slow path.
							base := next(accounts-8) & ^int64(1)
							rt.Atomically(func(tx *stm.Tx) {
								for p := int64(0); p < 8; p += 2 {
									tx.Inc(accts[base+p], -1)
									tx.Inc(accts[base+p+1], 1)
								}
							})
							continue
						}
						from := accts[next(accounts)]
						to := accts[next(accounts)]
						amt := next(50) + 1
						rt.Atomically(func(tx *stm.Tx) {
							if tx.GTE(from, amt) {
								tx.Inc(from, -amt)
								tx.Inc(to, amt)
							}
						})
					}
				}(int64(w) + 1)
			}
			wg.Wait()
			var sum int64
			for _, a := range accts {
				sum += a.Load()
			}
			if sum != accounts*initial {
				t.Fatalf("balance not conserved under hybrid faults: %d, want %d",
					sum, accounts*initial)
			}
			sn := rt.Stats()
			if want := uint64(workers * per); sn.Commits != want {
				t.Fatalf("commits = %d, want %d", sn.Commits, want)
			}
			if sn.Aborts == 0 {
				t.Fatal("storm injected nothing")
			}
			var reasonSum uint64
			for _, n := range sn.AbortReasons {
				reasonSum += n
			}
			if reasonSum != sn.Aborts {
				t.Fatalf("reason buckets (%d) do not account for all aborts (%d)",
					reasonSum, sn.Aborts)
			}
			hw := sn.AbortReasons[stm.AbortHWConflict] + sn.AbortReasons[stm.AbortHWCapacity]
			if hw == 0 {
				t.Fatal("no typed hardware aborts under a hardware storm")
			}
			if sn.HWFastCommits+sn.HWMiddleCommits > sn.Commits {
				t.Fatalf("path commits (%d fast + %d middle) exceed total %d",
					sn.HWFastCommits, sn.HWMiddleCommits, sn.Commits)
			}
			if sn.AbortReasons[stm.AbortHWCapacity] == 0 {
				t.Fatal("batch rebalances never overflowed a hardware path")
			}
			if algo == stm.HyTM {
				if sn.HWFastCommits == 0 {
					t.Fatal("storm never committed on the fast path")
				}
			} else if sn.HWFastCommits != 0 {
				t.Fatalf("HyTM-mid took %d fast-path commits", sn.HWFastCommits)
			}
			if sn.HWMiddleCommits == 0 {
				t.Fatal("storm never committed on the instrumented middle path")
			}
			if err := rt.CheckQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosDeterministicReplay runs the same single-threaded workload twice
// under the same fault-plan seed and demands identical outcomes and
// counters — the property that makes an injected failure reproducible. The
// HTM algorithms are excluded: their simulated hardware draws from its own
// per-descriptor RNG, which is deliberately decorrelated across runtimes.
func TestChaosDeterministicReplay(t *testing.T) {
	algos := []stm.Algorithm{
		stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2, stm.SGL,
	}
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			run := func() (int64, stm.Snapshot) {
				rt := stm.New(a)
				rt.SetBackoff(stm.BackoffNone) // backoff draws must not matter
				rt.SetFaultPlan(chaosPlan(0xD5))
				rt.SetEscalateAfter(16)
				x := stm.NewVar(0)
				for i := 0; i < 500; i++ {
					rt.Atomically(func(tx *stm.Tx) {
						if tx.GTE(x, 0) {
							tx.Inc(x, 1)
						}
					})
				}
				return x.Load(), rt.Stats()
			}
			v1, s1 := run()
			v2, s2 := run()
			if v1 != v2 || s1 != s2 {
				t.Fatalf("same seed diverged:\n run1 x=%d stats=%+v\n run2 x=%d stats=%+v", v1, s1, v2, s2)
			}
			if s1.Aborts == 0 {
				t.Fatal("fault plan injected nothing")
			}
		})
	}
}
