package stm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"semstm/stm"
)

// TestTryAtomicallyCommits verifies the bounded API returns nil on a
// successful transaction under every algorithm.
func TestTryAtomicallyCommits(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		x := stm.NewVar(1)
		if err := rt.TryAtomically(func(tx *stm.Tx) { tx.Inc(x, 1) }); err != nil {
			t.Fatalf("TryAtomically: %v", err)
		}
		if got := x.Load(); got != 2 {
			t.Fatalf("x = %d, want 2", got)
		}
	})
}

// TestTryAtomicallyExhaustion verifies an always-restarting transaction
// exhausts its attempt budget and returns a typed *AbortError carrying the
// attempt count and per-attempt reasons.
func TestTryAtomicallyExhaustion(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		x := stm.NewVar(0)
		err := rt.TryAtomically(func(tx *stm.Tx) {
			tx.Inc(x, 1)
			tx.Restart()
		}, stm.MaxAttempts(5))
		var ae *stm.AbortError
		if !errors.As(err, &ae) {
			t.Fatalf("err = %v (%T), want *AbortError", err, err)
		}
		if ae.Attempts != 5 || len(ae.Reasons) != 5 {
			t.Fatalf("Attempts=%d Reasons=%v, want 5 attempts with 5 reasons", ae.Attempts, ae.Reasons)
		}
		for _, r := range ae.Reasons {
			if r != stm.AbortExplicit {
				t.Fatalf("reason %v, want explicit", r)
			}
		}
		if ae.Cause != nil || ae.Escalated {
			t.Fatalf("unexpected Cause=%v Escalated=%v", ae.Cause, ae.Escalated)
		}
		// SGL is exempt from the rollback assertion: it writes in place
		// with no undo log (it cannot abort on its own; only a user
		// Restart unwinds it), so restarted writes are visible by design.
		if got := x.Load(); got != 0 && rt.Algorithm() != stm.SGL {
			t.Fatalf("aborted attempts leaked a write: x = %d", got)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		sn := rt.Stats()
		if sn.Commits != 0 || sn.Aborts != 5 || sn.AbortReasons[stm.AbortExplicit] != 5 {
			t.Fatalf("stats = %+v", sn)
		}
	})
}

// TestTryAtomicallyReasonCap verifies the per-attempt reason log is bounded.
func TestTryAtomicallyReasonCap(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	rt.SetEscalateAfter(0)
	err := rt.TryAtomically(func(tx *stm.Tx) { tx.Restart() }, stm.MaxAttempts(100))
	var ae *stm.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.Attempts != 100 || len(ae.Reasons) != 64 {
		t.Fatalf("Attempts=%d len(Reasons)=%d, want 100 and 64", ae.Attempts, len(ae.Reasons))
	}
	if ae.Error() == "" {
		t.Fatal("empty error string")
	}
}

// TestAtomicallyCtxCancelled verifies cancellation: an already-ended context
// returns immediately, and cancelling mid-livelock unwinds with a typed
// error that errors.Is-matches the context error.
func TestAtomicallyCtxCancelled(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		rt.SetEscalateAfter(0) // keep the livelock spinning until cancel

		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.AtomicallyCtx(pre, func(tx *stm.Tx) {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled ctx: err = %v", err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		attempts := 0
		err := rt.AtomicallyCtx(ctx, func(tx *stm.Tx) {
			attempts++
			if attempts >= 10 {
				cancel()
			}
			tx.Restart()
		})
		var ae *stm.AbortError
		if !errors.As(err, &ae) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v (%T)", err, err)
		}
		if ae.Attempts < 10 {
			t.Fatalf("Attempts = %d, want >= 10", ae.Attempts)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAtomicallyCtxCommits verifies the happy path returns nil.
func TestAtomicallyCtxCommits(t *testing.T) {
	rt := stm.New(stm.STL2)
	x := stm.NewVar(0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := rt.AtomicallyCtx(ctx, func(tx *stm.Tx) { tx.Write(x, 7) }); err != nil {
		t.Fatal(err)
	}
	if got := x.Load(); got != 7 {
		t.Fatalf("x = %d", got)
	}
}

// TestEscalationGuaranteesCommit is the acceptance scenario of the progress
// layer: with 100% commit-site fault injection a transaction is starved for
// exactly EscalateAfter attempts, then escalates to the irrevocable
// serializing mode (fault plan disarmed) and commits. The counters must read
// aborts == EscalateAfter, escalations == 1, commits == 1.
func TestEscalationGuaranteesCommit(t *testing.T) {
	const starve = 1000
	for _, a := range []stm.Algorithm{stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2} {
		t.Run(a.String(), func(t *testing.T) {
			rt := stm.New(a)
			rt.SetBackoff(stm.BackoffYield) // don't sleep through 1000 dooms
			rt.SetFaultPlan(stm.NewFaultPlan(1).WithSpurious(stm.SiteCommit, 100))
			rt.SetEscalateAfter(starve)
			x := stm.NewVar(0)
			rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
			if got := x.Load(); got != 1 {
				t.Fatalf("x = %d, want 1", got)
			}
			sn := rt.Stats()
			if sn.Commits != 1 || sn.Aborts != starve || sn.Escalations != 1 {
				t.Fatalf("commits=%d aborts=%d escalations=%d, want 1/%d/1",
					sn.Commits, sn.Aborts, sn.Escalations, starve)
			}
			if sn.AbortReasons[stm.AbortSpurious] != starve {
				t.Fatalf("spurious aborts = %d, want %d", sn.AbortReasons[stm.AbortSpurious], starve)
			}
			if err := rt.CheckQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEscalationDisabled verifies SetEscalateAfter(0) leaves the bounded API
// to exhaust its budget against permanent injection instead of escalating.
func TestEscalationDisabled(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	rt.SetBackoff(stm.BackoffYield)
	rt.SetFaultPlan(stm.NewFaultPlan(2).WithSpurious(stm.SiteCommit, 100))
	rt.SetEscalateAfter(0)
	err := rt.TryAtomically(func(tx *stm.Tx) {}, stm.MaxAttempts(50))
	var ae *stm.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.Attempts != 50 || ae.Escalated {
		t.Fatalf("Attempts=%d Escalated=%v", ae.Attempts, ae.Escalated)
	}
	sn := rt.Stats()
	if sn.Escalations != 0 || sn.AbortReasons[stm.AbortSpurious] != 50 {
		t.Fatalf("stats = %+v", sn)
	}
}

// TestEscalationHTMFallback: the HTM backend has its own escape hatch (the
// lock fallback), which must engage before runtime escalation even under
// 100% injected commit faults — injected faults are folded into the
// hardware-failure budget.
func TestEscalationHTMFallback(t *testing.T) {
	for _, a := range []stm.Algorithm{stm.HTM, stm.SHTM} {
		t.Run(a.String(), func(t *testing.T) {
			rt := stm.New(a)
			rt.SetFaultPlan(stm.NewFaultPlan(3).WithSpurious(stm.SiteCommit, 100))
			x := stm.NewVar(0)
			rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
			if got := x.Load(); got != 1 {
				t.Fatalf("x = %d", got)
			}
			sn := rt.Stats()
			if sn.Commits != 1 || sn.Escalations != 0 {
				t.Fatalf("commits=%d escalations=%d, want fallback commit without escalation",
					sn.Commits, sn.Escalations)
			}
			fallbacks, _ := rt.HTMStats()
			if fallbacks == 0 {
				t.Fatal("lock fallback never engaged")
			}
			if err := rt.CheckQuiescent(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckQuiescentClean verifies the probe reports clean on a fresh
// runtime and after ordinary commits, for every algorithm.
func TestCheckQuiescentClean(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatalf("fresh runtime: %v", err)
		}
		x := stm.NewVar(0)
		for i := 0; i < 100; i++ {
			rt.Atomically(func(tx *stm.Tx) { tx.Inc(x, 1) })
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}
