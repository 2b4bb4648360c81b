package stm_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"semstm/stm"
)

// adaptiveLadderHas reports whether a is one of the runtime's ladder rungs.
func adaptiveLadderHas(rt *stm.Runtime, a stm.Algorithm) bool {
	for _, l := range rt.AdaptiveConfig().Ladder {
		if l == a {
			return true
		}
	}
	return false
}

// TestAdaptiveContentionRampSwitches is the headline scenario of the
// adaptive controller: a workload that starts uncontended and ramps into a
// single-cell classical read-modify-write storm must push the abort-reason
// mix over the escalation threshold and trigger at least one online engine
// switch — observed through Snapshot.EngineSwitches — while committing every
// transaction exactly once.
func TestAdaptiveContentionRampSwitches(t *testing.T) {
	rt := stm.New(stm.Adaptive)
	rt.SetAdaptiveConfig(stm.AdaptiveConfig{
		Epoch:         8,
		MinSample:     32,
		EscalatePct:   10,
		DeescalatePct: -1, // one-way ramp: the test asserts escalation only
		MinDwell:      1,
	})
	rt.SetYieldEvery(1) // interleave attempts aggressively (single-core box)
	if got := rt.CurrentAlgorithm(); got != stm.SNOrec {
		t.Fatalf("initial engine %v, want ladder head %v", got, stm.SNOrec)
	}

	const rampTxns = 200
	hot := stm.NewVar(0)
	// Phase 1: uncontended ramp — no aborts, so the policy must hold.
	for i := 0; i < rampTxns; i++ {
		rt.Atomically(func(tx *stm.Tx) { tx.Inc(hot, 1) })
	}
	if sn := rt.Stats(); sn.EngineSwitches != 0 {
		t.Fatalf("switched %d times during the uncontended ramp", sn.EngineSwitches)
	}

	// Phase 2: contention storm — classical RMW on one cell from many
	// goroutines makes validation aborts dominate.
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rt.Atomically(func(tx *stm.Tx) { tx.Write(hot, tx.Read(hot)+1) })
			}
		}()
	}
	wg.Wait()

	sn := rt.Stats()
	if want := uint64(rampTxns + workers*per); sn.Commits != want {
		t.Fatalf("commits = %d, want %d", sn.Commits, want)
	}
	if got := hot.Load(); got != rampTxns+workers*per {
		t.Fatalf("counter = %d, want %d", got, rampTxns+workers*per)
	}
	if sn.EngineSwitches == 0 {
		t.Fatalf("contention ramp triggered no engine switch (aborts=%d, %.1f%%)",
			sn.Aborts, sn.AbortRate())
	}
	if cur := rt.CurrentAlgorithm(); cur == stm.SNOrec || !adaptiveLadderHas(rt, cur) {
		t.Fatalf("after the storm the engine is %v; want a higher ladder rung", cur)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("switches=%d final=%v aborts=%.1f%%", sn.EngineSwitches, rt.CurrentAlgorithm(), sn.AbortRate())
}

// TestAdaptiveDeescalates checks the downward walk: forced onto a higher
// rung, a contention-free workload must bring the runtime back to the ladder
// head once the dwell windows pass.
func TestAdaptiveDeescalates(t *testing.T) {
	rt := stm.New(stm.Adaptive)
	rt.SetAdaptiveConfig(stm.AdaptiveConfig{
		Epoch:         8,
		MinSample:     16,
		DeescalatePct: 5,
		MinDwell:      1,
	})
	if err := rt.SwitchEngine(stm.SGL); err != nil {
		t.Fatal(err)
	}
	if got := rt.CurrentAlgorithm(); got != stm.SGL {
		t.Fatalf("SwitchEngine left engine %v", got)
	}
	v := stm.NewVar(0)
	const txns = 2000
	for i := 0; i < txns; i++ {
		rt.Atomically(func(tx *stm.Tx) { tx.Inc(v, 1) })
	}
	if got := rt.CurrentAlgorithm(); got != stm.SNOrec {
		t.Fatalf("no de-escalation: still on %v after %d uncontended txns", got, txns)
	}
	if got := v.Load(); got != txns {
		t.Fatalf("counter = %d, want %d", got, txns)
	}
	// The forced switch plus at least SGL→S-TL2→S-NOrec.
	if sn := rt.Stats(); sn.EngineSwitches < 3 {
		t.Fatalf("EngineSwitches = %d, want >= 3", sn.EngineSwitches)
	}
}

// TestAdaptiveHybridLadderRamp drives the five-rung hybrid ladder through a
// full contention cycle: start on the progressive HyTM tier, escalate off
// the hardware rungs when a conflict storm makes the typed hardware aborts
// dominate, then walk back down into the HTM tiers once the workload goes
// quiet — the "ladder demonstrably reaches the HTM tiers" acceptance check.
func TestAdaptiveHybridLadderRamp(t *testing.T) {
	t.Run("EscalatesOffHardware", func(t *testing.T) {
		rt := stm.New(stm.Adaptive)
		rt.SetAdaptiveConfig(stm.AdaptiveConfig{
			Epoch:         8,
			MinSample:     32,
			EscalatePct:   10,
			DeescalatePct: -1, // one-way ramp: the quiet storm tail must not walk back
			MinDwell:      1,
			Ladder:        stm.HybridLadder(),
		})
		rt.ConfigureHTM(64, 4, 0) // deterministic hardware: no spurious noise
		rt.SetYieldEvery(1)
		if got := rt.CurrentAlgorithm(); got != stm.HyTM {
			t.Fatalf("initial engine %v, want hybrid ladder head %v", got, stm.HyTM)
		}

		// Contention storm — classical RMW on one cell. On the fast path
		// every interleaved commit is a typed hw-conflict, so the storm must
		// push the runtime off the hardware rungs.
		const workers, per = 8, 300
		hot := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					rt.Atomically(func(tx *stm.Tx) { tx.Write(hot, tx.Read(hot)+1) })
				}
			}()
		}
		wg.Wait()
		sn := rt.Stats()
		if got := hot.Load(); got != workers*per {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
		if sn.EngineSwitches == 0 {
			t.Fatalf("storm triggered no escalation (aborts=%d, %.1f%%)",
				sn.Aborts, sn.AbortRate())
		}
		cur := rt.CurrentAlgorithm()
		if cur == stm.HyTM || !adaptiveLadderHas(rt, cur) {
			t.Fatalf("after the storm the engine is %v; want a higher ladder rung", cur)
		}
		hwAborts := sn.AbortReasons[stm.AbortHWConflict] +
			sn.AbortReasons[stm.AbortHWCapacity]
		if hwAborts == 0 {
			t.Fatal("storm produced no typed hardware aborts on the hybrid tier")
		}
		if sn.HWFastCommits == 0 {
			t.Fatal("the hybrid rung never committed on its fast path")
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		t.Logf("switches=%d final=%v hwAborts=%d fast=%d middle=%d",
			sn.EngineSwitches, cur, hwAborts, sn.HWFastCommits, sn.HWMiddleCommits)
	})

	t.Run("DeescalatesIntoHardware", func(t *testing.T) {
		rt := stm.New(stm.Adaptive)
		rt.SetAdaptiveConfig(stm.AdaptiveConfig{
			Epoch:     8,
			MinSample: 16,
			MinDwell:  1,
			Ladder:    stm.HybridLadder(),
		})
		rt.ConfigureHTM(64, 4, 0)
		// Force the runtime up to the software tier, then run contention-free
		// traffic: the policy must walk back down through HyTM-mid (paying
		// the doubled hardware re-entry dwell) to the fast-path rung.
		if err := rt.SwitchEngine(stm.SNOrec); err != nil {
			t.Fatal(err)
		}
		hot := stm.NewVar(0)
		const quiet = 6000
		for i := 0; i < quiet; i++ {
			rt.Atomically(func(tx *stm.Tx) { tx.Inc(hot, 1) })
		}
		if got := rt.CurrentAlgorithm(); got != stm.HyTM {
			t.Fatalf("quiet traffic ended on %v; want the hybrid ladder head", got)
		}
		if got := hot.Load(); got != quiet {
			t.Fatalf("counter = %d, want %d", got, quiet)
		}
		sn := rt.Stats()
		// Forced switch plus at least S-NOrec→HyTM-mid→HyTM.
		if sn.EngineSwitches < 3 {
			t.Fatalf("EngineSwitches = %d, want >= 3", sn.EngineSwitches)
		}
		if sn.HWFastCommits == 0 {
			t.Fatal("re-entered hybrid rung never committed on its fast path")
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAdaptiveManualSwitchChaos is the mid-switch safety test: with the
// policy disabled, a driver goroutine forces engine switches across the
// whole concrete-engine spectrum while workers hammer bank transfers under
// full fault injection. Conservation, exact commit counts, and quiescence
// must hold across every transition (run under -race by scripts/check.sh).
func TestAdaptiveManualSwitchChaos(t *testing.T) {
	rt := stm.New(stm.Adaptive)
	rt.SetAdaptiveConfig(stm.AdaptiveConfig{Epoch: -1}) // manual control only
	rt.SetFaultPlan(chaosPlan(0x5111C))
	rt.SetEscalateAfter(64)
	workers, per := chaosScale(t)
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
	// The switch driver cycles through every concrete engine family while
	// the workers run, then returns to the ladder head.
	cycle := []stm.Algorithm{
		stm.STL2, stm.HTM, stm.SGL, stm.SHTM,
		stm.NOrec, stm.TL2, stm.SNOrec,
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	switches := 0
	for {
		quit := false
		for _, a := range cycle {
			if err := rt.SwitchEngine(a); err != nil {
				t.Errorf("SwitchEngine(%v): %v", a, err)
			}
			switches++
			select {
			case <-done:
				quit = true
			default:
			}
			if quit {
				break
			}
		}
		if quit {
			break
		}
	}
	var sum int64
	for _, a := range accts {
		sum += a.Load()
	}
	if sum != accounts*initial {
		t.Fatalf("balance not conserved across switches: %d, want %d", sum, accounts*initial)
	}
	sn := rt.Stats()
	if want := uint64(workers * per); sn.Commits != want {
		t.Fatalf("commits = %d, want %d (lost or duplicated commits)", sn.Commits, want)
	}
	if sn.EngineSwitches != uint64(switches) {
		t.Fatalf("EngineSwitches = %d, drove %d", sn.EngineSwitches, switches)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveBoundedAPIs exercises TryAtomically and AtomicallyCtx on an
// adaptive runtime: bounded failure must surface as the usual typed
// *AbortError, cancellation must be honored, and a healthy context run must
// commit.
func TestAdaptiveBoundedAPIs(t *testing.T) {
	t.Run("TryAtomically", func(t *testing.T) {
		rt := stm.New(stm.Adaptive)
		rt.SetEscalateAfter(0)
		rt.SetFaultPlan(stm.NewFaultPlan(11).WithSpurious(stm.SiteCommit, 100))
		v := stm.NewVar(0)
		err := rt.TryAtomically(func(tx *stm.Tx) { tx.Inc(v, 1) }, stm.MaxAttempts(4))
		var ae *stm.AbortError
		if !errors.As(err, &ae) || ae.Attempts != 4 {
			t.Fatalf("err = %v", err)
		}
		if v.Load() != 0 {
			t.Fatal("failed transaction leaked a write")
		}
	})
	t.Run("CtxCancelled", func(t *testing.T) {
		rt := stm.New(stm.Adaptive)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := rt.AtomicallyCtx(ctx, func(tx *stm.Tx) {})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("CtxCommits", func(t *testing.T) {
		rt := stm.New(stm.Adaptive)
		v := stm.NewVar(0)
		if err := rt.AtomicallyCtx(context.Background(), func(tx *stm.Tx) { tx.Inc(v, 1) }); err != nil {
			t.Fatal(err)
		}
		if v.Load() != 1 {
			t.Fatal("commit lost")
		}
	})
}

// TestSwitchEngineErrors pins the misuse surface of the manual switch API.
func TestSwitchEngineErrors(t *testing.T) {
	fixed := stm.New(stm.SNOrec)
	if err := fixed.SwitchEngine(stm.SGL); err == nil {
		t.Fatal("SwitchEngine on a fixed runtime succeeded")
	}
	rt := stm.New(stm.Adaptive)
	if err := rt.SwitchEngine(stm.Adaptive); err == nil {
		t.Fatal("SwitchEngine to the composite engine succeeded")
	}
	if err := rt.SwitchEngine(stm.Algorithm(99)); err == nil {
		t.Fatal("SwitchEngine to an unregistered id succeeded")
	}
	if got := rt.Stats().EngineSwitches; got != 0 {
		t.Fatalf("failed switches were counted: %d", got)
	}
	if err := rt.SwitchEngine(stm.TL2); err != nil {
		t.Fatal(err)
	}
	if got := rt.CurrentAlgorithm(); got != stm.TL2 {
		t.Fatalf("engine = %v after SwitchEngine(TL2)", got)
	}
	if got := rt.Stats().EngineSwitches; got != 1 {
		t.Fatalf("EngineSwitches = %d, want 1", got)
	}
	// Algorithm() keeps reporting the composite identity.
	if rt.Algorithm() != stm.Adaptive {
		t.Fatalf("Algorithm() = %v", rt.Algorithm())
	}
}

// TestAdaptiveConfigPanics pins the constructor-time validation.
func TestAdaptiveConfigPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetAdaptiveConfig on fixed runtime", func() {
		stm.New(stm.TL2).SetAdaptiveConfig(stm.AdaptiveConfig{})
	})
	mustPanic("composite ladder entry", func() {
		stm.New(stm.Adaptive).SetAdaptiveConfig(stm.AdaptiveConfig{
			Ladder: []stm.Algorithm{stm.SNOrec, stm.Adaptive},
		})
	})
	mustPanic("unregistered ladder entry", func() {
		stm.New(stm.Adaptive).SetAdaptiveConfig(stm.AdaptiveConfig{
			Ladder: []stm.Algorithm{stm.Algorithm(42)},
		})
	})
}
