package stm_test

import (
	"sync"
	"testing"

	"semstm/internal/htm"
	"semstm/stm"
)

// TestUserPanicRollback verifies, for every algorithm, that a panic thrown
// by user code inside an atomic block (not the abort sentinel) propagates to
// the caller with the attempt rolled back: no global lock or orec stays
// held, the pooled descriptor remains usable, and buffered writes
// are discarded (except under SGL, which writes in place by design).
func TestUserPanicRollback(t *testing.T) {
	type boom struct{ msg string }
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		// Deterministic hardware (no spurious commit failures), so every
		// engine sees exactly the one panicked attempt.
		rt.ConfigureHTM(htm.DefaultCapacity, htm.DefaultMaxHWRetries, 0)
		x := stm.NewVar(10)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("user panic was swallowed")
				}
				if b, ok := r.(boom); !ok || b.msg != "user bug" {
					t.Fatalf("panic value mangled: %v", r)
				}
			}()
			rt.Atomically(func(tx *stm.Tx) {
				tx.Write(x, 99)
				panic(boom{"user bug"})
			})
		}()
		if got := x.Load(); got != 10 && rt.Algorithm() != stm.SGL {
			t.Fatalf("buffered write leaked through panic: x = %d", got)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatalf("resource leaked through panic: %v", err)
		}
		// The descriptor that unwound must come out of the pool reusable.
		for i := 0; i < 10; i++ {
			rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
		}
		sn := rt.Stats()
		if sn.Commits != 10 {
			t.Fatalf("commits = %d, want 10", sn.Commits)
		}
		if sn.Aborts != 1 {
			t.Fatalf("aborts = %d, want 1", sn.Aborts)
		}
	})
}

// TestUserPanicDoesNotBlockOthers verifies a panicked transaction leaves the
// runtime fully operational for concurrent goroutines: everyone else keeps
// committing while one worker repeatedly panics out of atomic blocks.
func TestUserPanicDoesNotBlockOthers(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		const committers, per, panics = 4, 200, 50
		c := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					rt.Atomically(func(tx *stm.Tx) { tx.Inc(c, 1) })
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < panics; i++ {
				func() {
					defer func() { recover() }()
					rt.Atomically(func(tx *stm.Tx) {
						tx.Read(c)
						panic("chaos monkey")
					})
				}()
			}
		}()
		wg.Wait()
		if got := c.Load(); got != committers*per {
			t.Fatalf("counter = %d, want %d", got, committers*per)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPanicInsideEscalation verifies a user panic thrown while a transaction
// runs in the irrevocable serializing mode still releases the escalation
// gate, so later transactions are not wedged behind a dead escalator.
func TestPanicInsideEscalation(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	rt.SetBackoff(stm.BackoffYield)
	rt.SetFaultPlan(stm.NewFaultPlan(9).WithSpurious(stm.SiteCommit, 100))
	rt.SetEscalateAfter(10)
	x := stm.NewVar(0)
	attempts := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		rt.Atomically(func(tx *stm.Tx) {
			attempts++
			if attempts > 10 { // first escalated run: fault plan is disarmed
				panic("bug in escalated body")
			}
			tx.Inc(x, 1)
		})
	}()
	// The gate must be released: a fresh bounded run should make progress
	// (and itself escalate past the 100% commit faults to commit).
	if err := rt.TryAtomically(func(tx *stm.Tx) { tx.Inc(x, 1) }, stm.MaxAttempts(50)); err != nil {
		t.Fatalf("runtime wedged after escalated panic: %v", err)
	}
	if got := x.Load(); got != 1 {
		t.Fatalf("x = %d, want 1", got)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}
