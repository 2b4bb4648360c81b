package stm_test

import (
	"sync"
	"testing"

	"semstm/stm"
)

// forEachAlgo runs the test once per algorithm, semantic and not.
func forEachAlgo(t *testing.T, f func(t *testing.T, rt *stm.Runtime)) {
	t.Helper()
	for _, a := range stm.Algorithms() {
		t.Run(a.String(), func(t *testing.T) { f(t, stm.New(a)) })
	}
}

func TestCounterIncrements(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		const workers, per = 8, 500
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
		wg.Wait()
		if got := c.Load(); got != workers*per {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
	})
}

func TestBankConservation(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		const accounts, workers, per, initial = 32, 6, 300, 1000
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
						// Overdraft check via semantic GTE, then
						// semantic transfer (Bank benchmark pattern).
						if tx.GTE(from, amt) {
							tx.Dec(from, amt)
							tx.Inc(to, amt)
						}
					})
				}
			}(int64(w + 1))
		}
		wg.Wait()
		var sum int64
		for _, a := range accts {
			v := a.Load()
			if v < 0 {
				t.Fatalf("negative balance %d: overdraft check violated", v)
			}
			sum += v
		}
		if sum != accounts*initial {
			t.Fatalf("total = %d, want %d (money not conserved)", sum, accounts*initial)
		}
	})
}

// TestSnapshotConsistency is an opacity smoke test: writers keep x == y at
// all times; any transaction that observes x != y has read an inconsistent
// snapshot.
func TestSnapshotConsistency(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		x, y := stm.NewVar(0), stm.NewVar(0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rt.Atomically(func(tx *stm.Tx) {
					tx.Write(x, i)
					tx.Write(y, i)
				})
			}
		}()
		var violations int
		for i := 0; i < 2000; i++ {
			a, b := int64(0), int64(0)
			rt.Atomically(func(tx *stm.Tx) {
				a = tx.Read(x)
				b = tx.Read(y)
			})
			if a != b {
				violations++
			}
		}
		close(stop)
		wg.Wait()
		if violations != 0 {
			t.Fatalf("%d inconsistent snapshots observed", violations)
		}
	})
}

// TestSemanticSnapshotConsistency: same invariant expressed semantically —
// a transaction compares x and y for equality through the address–address
// conditional; the outcome must always be true.
func TestSemanticSnapshotConsistency(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		x, y := stm.NewVar(0), stm.NewVar(0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rt.Atomically(func(tx *stm.Tx) {
					tx.Write(x, i)
					tx.Write(y, i)
				})
			}
		}()
		for i := 0; i < 2000; i++ {
			equal := stm.Run(rt, func(tx *stm.Tx) bool {
				return tx.CmpVars(x, stm.OpEQ, y)
			})
			if !equal {
				close(stop)
				wg.Wait()
				t.Fatal("semantic snapshot saw x != y")
			}
		}
		close(stop)
		wg.Wait()
	})
}

func TestRunReturnsValue(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	v := stm.NewVar(41)
	got := stm.Run(rt, func(tx *stm.Tx) int64 {
		tx.Inc(v, 1)
		return tx.Read(v)
	})
	if got != 42 || v.Load() != 42 {
		t.Fatalf("Run = %d, memory = %d", got, v.Load())
	}
}

func TestRestartRetries(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	v := stm.NewVar(0)
	attempts := 0
	rt.Atomically(func(tx *stm.Tx) {
		attempts++
		tx.Write(v, int64(attempts))
		if attempts < 3 {
			tx.Restart()
		}
	})
	if attempts != 3 || v.Load() != 3 {
		t.Fatalf("attempts=%d v=%d", attempts, v.Load())
	}
	sn := rt.Stats()
	if sn.Commits != 1 || sn.Aborts != 2 {
		t.Fatalf("stats %+v", sn)
	}
}

func TestUserPanicPropagates(t *testing.T) {
	for _, a := range stm.Algorithms() {
		rt := stm.New(a)
		v := stm.NewVar(0)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("%v: recovered %v", a, r)
				}
			}()
			rt.Atomically(func(tx *stm.Tx) {
				tx.Write(v, 1)
				panic("boom")
			})
		}()
		// The runtime must still be usable afterwards (locks released,
		// descriptor state reset).
		rt.Atomically(func(tx *stm.Tx) { tx.Write(v, 5) })
		if v.Load() != 5 {
			t.Fatalf("%v: runtime wedged after user panic", a)
		}
	}
}

func TestAbortsHappenUnderContention(t *testing.T) {
	for _, a := range []stm.Algorithm{stm.NOrec, stm.TL2} {
		rt := stm.New(a)
		v := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					rt.Atomically(func(tx *stm.Tx) {
						tx.Write(v, tx.Read(v)+1)
					})
				}
			}()
		}
		wg.Wait()
		sn := rt.Stats()
		if sn.Commits != 8*300 {
			t.Fatalf("%v: commits = %d", a, sn.Commits)
		}
		if v.Load() != 8*300 {
			t.Fatalf("%v: value = %d", a, v.Load())
		}
		t.Logf("%v: aborts = %d (%.1f%%)", a, sn.Aborts, sn.AbortRate())
	}
}

func TestAlgorithmMetadata(t *testing.T) {
	want := map[stm.Algorithm]struct {
		name     string
		semantic bool
	}{
		stm.NOrec:   {"NOrec", false},
		stm.SNOrec:  {"S-NOrec", true},
		stm.TL2:     {"TL2", false},
		stm.STL2:    {"S-TL2", true},
		stm.SGL:     {"SGL", false},
		stm.HTM:     {"HTM", false},
		stm.SHTM:    {"S-HTM", true},
		stm.HyTM:    {"HyTM", true},
		stm.HyTMMid: {"HyTM-mid", true},
	}
	for a, w := range want {
		if a.String() != w.name {
			t.Errorf("%d: name %q, want %q", a, a.String(), w.name)
		}
		if a.Semantic() != w.semantic {
			t.Errorf("%s: Semantic() = %v", a, a.Semantic())
		}
	}
	if len(stm.Algorithms()) != 9 {
		t.Errorf("Algorithms() lists %d", len(stm.Algorithms()))
	}
}

func TestNewUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	stm.New(stm.Algorithm(99))
}

func TestComparatorConvenienceMethods(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	v := stm.NewVar(10)
	rt.Atomically(func(tx *stm.Tx) {
		checks := []struct {
			name string
			got  bool
			want bool
		}{
			{"GT", tx.GT(v, 9), true},
			{"GT=", tx.GT(v, 10), false},
			{"GTE", tx.GTE(v, 10), true},
			{"LT", tx.LT(v, 11), true},
			{"LTE", tx.LTE(v, 10), true},
			{"LTE<", tx.LTE(v, 9), false},
			{"EQ", tx.EQ(v, 10), true},
			{"NEQ", tx.NEQ(v, 10), false},
			{"Cmp", tx.Cmp(v, stm.OpNEQ, 3), true},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			}
		}
	})
}

// TestTable3DelegationAccounting: the base-vs-semantic operation profile of
// Table 3 must arise from a single application source. One bank-style
// transaction (1 cmp + 2 incs) yields 1 compare + 2 incs under S-NOrec and
// 3 reads + 2 writes under NOrec.
func TestTable3DelegationAccounting(t *testing.T) {
	run := func(a stm.Algorithm) stm.Snapshot {
		rt := stm.New(a)
		from, to := stm.NewVar(100), stm.NewVar(100)
		rt.Atomically(func(tx *stm.Tx) {
			if tx.GTE(from, 10) {
				tx.Dec(from, 10)
				tx.Inc(to, 10)
			}
		})
		return rt.Stats()
	}
	sem := run(stm.SNOrec)
	if sem.Compares != 1 || sem.Incs != 2 || sem.Reads != 0 || sem.Writes != 0 {
		t.Fatalf("semantic profile %+v", sem)
	}
	base := run(stm.NOrec)
	if base.Reads != 3 || base.Writes != 2 || base.Compares != 0 || base.Incs != 0 {
		t.Fatalf("base profile %+v", base)
	}
}

func TestDecIsNegativeInc(t *testing.T) {
	rt := stm.New(stm.STL2)
	v := stm.NewVar(10)
	rt.Atomically(func(tx *stm.Tx) { tx.Dec(v, 4) })
	if v.Load() != 6 {
		t.Fatalf("v = %d", v.Load())
	}
}
