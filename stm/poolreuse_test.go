package stm_test

// Descriptor-pool reuse fuzz: the zero-allocation lifecycle recycles fully
// built descriptors through a sync.Pool, so the isolation between two
// logically distinct transactions now depends on Reset discipline instead of
// fresh memory. This test hammers that discipline under -race (the package is
// in check.sh's RACE_PKGS): on every registered engine, one runtime each,
// concurrent workers mix all three entry points, force explicit aborts,
// cancel contexts, and run under fault injection and a low escalation
// threshold.
//
// What would leak if Reset discipline broke, and what catches it:
//
//   - write-set entries replayed from a previous transaction corrupt the
//     transfer amounts → the conservation invariant fails;
//   - a stale abort-reason log (or the release-time poison sentinel, which
//     stringifies as "invalid") surfaces in a later call's AbortError →
//     the reason-validity assertion fails;
//   - engine metadata left locked by a recycled descriptor → CheckQuiescent
//     fails after the run.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"semstm/stm"
)

// validReasons is the exhaustive stringification of the abort-reason enum;
// anything else in an AbortError — in particular the pool poison, which
// prints as "invalid" — is leaked descriptor state.
var validReasons = map[string]bool{
	"unknown": true, "validation": true, "cmp-flip": true, "orec-locked": true,
	"capacity": true, "spurious": true, "explicit": true,
	"hw-conflict": true, "hw-capacity": true,
}

func assertReasonsValid(t *testing.T, err error) {
	var ae *stm.AbortError
	if !errors.As(err, &ae) {
		return
	}
	for _, r := range ae.Reasons {
		if !validReasons[r.String()] {
			t.Errorf("leaked descriptor state: abort reason %q (%d) in %v", r.String(), int(r), ae)
			return
		}
	}
}

func TestPoolReusePoisoningFuzz(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		poolReuseFuzz(t, rt)
	})
}

func poolReuseFuzz(t *testing.T, rt *stm.Runtime) {
	workers, per := chaosScale(t)
	rt.SetFaultPlan(chaosPlan(0x9015011))
	rt.SetEscalateAfter(48) // low: drive pooled descriptors through escalation
	const accounts, initial = 16, 1000
	accts := stm.NewVars(accounts, initial)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: exercises the immediate-return path
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(seed int64) {
			defer workerWG.Done()
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
				from, to := next(accounts), next(accounts)
				amt := 1 + next(7)
				transfer := func(tx *stm.Tx) {
					tx.Inc(accts[from], -amt)
					tx.Inc(accts[to], amt)
				}
				switch next(5) {
				case 0:
					rt.Atomically(transfer)
				case 1:
					// Tiny budget: frequently exhausts and returns the
					// per-attempt reason log from the descriptor buffer.
					assertReasonsValid(t, rt.TryAtomically(transfer, stm.MaxAttempts(int(1+next(3)))))
				case 2:
					assertReasonsValid(t, rt.AtomicallyCtx(context.Background(), transfer))
				case 3:
					assertReasonsValid(t, rt.AtomicallyCtx(cancelled, transfer))
				default:
					// Explicit restart on the first attempt: the returned
					// AbortError must carry this call's "explicit" reason,
					// never residue from the descriptor's previous life.
					first := true
					err := rt.TryAtomically(func(tx *stm.Tx) {
						if first {
							first = false
							tx.Restart()
						}
						transfer(tx)
					}, stm.MaxAttempts(1))
					if err == nil {
						t.Error("TryAtomically(MaxAttempts(1)) with Restart: want error")
					}
					assertReasonsValid(t, err)
				}
			}
		}(int64(w)*0x9E3779B9 + 1)
	}
	workerWG.Wait()

	var sum int64
	rt.Atomically(func(tx *stm.Tx) {
		sum = 0
		for _, a := range accts {
			sum += tx.Read(a)
		}
	})
	if want := int64(accounts * initial); sum != want {
		t.Errorf("conservation violated: total %d, want %d (leaked write-set state?)", sum, want)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Errorf("after fuzz: %v", err)
	}
}
