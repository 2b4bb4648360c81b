// Online adaptive algorithm switching (DESIGN.md §9).
//
// An Adaptive runtime binds new attempts to one concrete engine at a time
// and re-decides that binding online from abort telemetry: every Epoch
// attempts a descriptor folds the runtime's abort-reason mix over the last
// window into a contention estimate and walks a configured engine ladder —
// escalating toward pessimistic concurrency control when contention aborts
// dominate, de-escalating back when they vanish. The switch itself reuses
// the escalator of the irrevocable mode, extended with a real drain: raise
// the gate (new attempts park), wait until every in-flight attempt has
// committed or aborted, flip the published engine slot, drop the gate.
// Because no attempt of the old engine overlaps any attempt of the new one,
// each engine still only ever synchronizes with itself, and opacity is
// inherited from whichever engine is current — the argument DESIGN.md §9
// spells out.
package stm

import (
	"fmt"
	"runtime"
	"sync"

	"semstm/internal/core"
)

// AdaptiveConfig tunes the online switching policy of an Adaptive runtime.
// The zero value of any field selects its default; the whole config must be
// installed (SetAdaptiveConfig) before the runtime is shared.
type AdaptiveConfig struct {
	// Epoch is how many attempts one descriptor runs between policy
	// evaluations (default 128). Negative disables online switching —
	// the runtime stays on Ladder[0] unless SwitchEngine is called.
	Epoch int
	// MinSample is the minimum number of attempts (commits + aborts) the
	// evaluation window must contain before the policy judges it
	// (default 64); smaller windows are carried into the next epoch.
	MinSample uint64
	// EscalatePct is the contention-abort percentage at or above which the
	// policy moves one rung up the ladder (default 40).
	EscalatePct float64
	// DeescalatePct is the contention-abort percentage at or below which
	// the policy moves one rung down (default 5). Negative disables
	// de-escalation.
	DeescalatePct float64
	// MinDwell is how many judged windows the policy must sit out after a
	// switch before it may switch again (default 2), damping oscillation.
	// De-escalating *into* an HTM-backed rung doubles the dwell: hardware
	// tiers are the most expensive rungs to be wrong about (a capacity-bound
	// workload aborts every attempt before telemetry catches up), so
	// re-entry is deliberately sticky.
	MinDwell int
	// CapacityEscalatePct is the capacity-abort percentage (HTM tracked-set
	// overflow, including the progressive engine's hw-capacity
	// demotions) at or above which the policy escalates off an HTM-backed
	// rung even when total contention sits below EscalatePct (default 10).
	// Capacity aborts are footprint, not contention: retrying the same
	// transactions on the same hardware tier cannot help, so the ladder
	// moves to a software rung at a much lower threshold. Negative disables
	// the rule; it never applies on software rungs.
	CapacityEscalatePct float64
	// Ladder is the escalation order, most optimistic first (default
	// S-NOrec, S-TL2, SGL). Every entry must be a registered concrete
	// engine; the runtime starts on Ladder[0].
	Ladder []Algorithm
}

// HybridLadder returns the escalation order for runtimes that should start
// on the progressive HyTM tiers: HyTM (uninstrumented fast path first),
// HyTM-mid (instrumentation always on), then the software ladder S-NOrec,
// S-TL2, SGL. It is not the default — engine mixes with no hardware story
// keep the software ladder — but it is the ladder the contention-ramp and
// hybrid benchmarks run.
func HybridLadder() []Algorithm {
	return []Algorithm{HyTM, HyTMMid, SNOrec, STL2, SGL}
}

// withDefaults fills zero-valued fields and validates the ladder.
func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Epoch == 0 {
		c.Epoch = 128
	}
	if c.MinSample == 0 {
		c.MinSample = 64
	}
	if c.EscalatePct == 0 {
		c.EscalatePct = 40
	}
	if c.DeescalatePct == 0 {
		c.DeescalatePct = 5
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	}
	if c.CapacityEscalatePct == 0 {
		c.CapacityEscalatePct = 10
	}
	if len(c.Ladder) == 0 {
		c.Ladder = []Algorithm{SNOrec, STL2, SGL}
	}
	for _, a := range c.Ladder {
		if d, ok := core.EngineFor(a); !ok || d.Composite {
			panic(fmt.Sprintf("stm: adaptive ladder entry %v is not a concrete engine", a))
		}
	}
	return c
}

// adaptiveState is the controller of one Adaptive runtime.
type adaptiveState struct {
	cfg AdaptiveConfig

	// mu serializes policy evaluations; descriptors reaching an epoch
	// boundary while an evaluation runs just skip theirs (TryLock), so the
	// policy never blocks the retry loop.
	mu sync.Mutex
	// last is the stats snapshot the previous judged window ended at.
	last core.Snapshot
	// pos is the current rung on cfg.Ladder.
	pos int
	// dwell is how many more judged windows must pass before switching.
	dwell int
}

func newAdaptiveState() *adaptiveState {
	return &adaptiveState{cfg: AdaptiveConfig{}.withDefaults()}
}

// SetAdaptiveConfig installs the switching policy of an Adaptive runtime and
// rebases it onto the new Ladder[0]. Like the other knobs, it must be called
// before the runtime is shared between goroutines; it panics on a
// non-adaptive runtime or an invalid ladder.
func (rt *Runtime) SetAdaptiveConfig(cfg AdaptiveConfig) {
	if rt.adapt == nil {
		panic("stm: SetAdaptiveConfig on a non-adaptive runtime")
	}
	a := rt.adapt
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cfg = cfg.withDefaults()
	if rt.nshards > 0 {
		for _, alg := range a.cfg.Ladder {
			if d, ok := core.EngineFor(alg); ok && !d.TwoPhase && !d.Irrevocable {
				panic(fmt.Sprintf("stm: adaptive ladder entry %v cannot be sharded", alg))
			}
		}
	}
	a.pos = 0
	a.dwell = 0
	a.last = rt.stats.Snapshot()
	first := a.cfg.Ladder[0]
	if rt.cur.Load().algo != first {
		rt.cur.Store(&engineSlot{algo: first, eng: rt.engineFor(first)})
	}
}

// AdaptiveConfig returns the active switching policy (with defaults filled
// in) of an Adaptive runtime, and the zero config for fixed runtimes.
func (rt *Runtime) AdaptiveConfig() AdaptiveConfig {
	if rt.adapt == nil {
		return AdaptiveConfig{}
	}
	rt.adapt.mu.Lock()
	defer rt.adapt.mu.Unlock()
	return rt.adapt.cfg
}

// noteAttempt is the per-attempt policy hook of adaptive runtimes, called by
// the retry engine after each non-escalated attempt (with the descriptor's
// active flag already cleared, so an evaluation that drains never waits on
// its own caller). It only counts until the descriptor's epoch boundary.
func (rt *Runtime) noteAttempt(tx *Tx) {
	epoch := rt.adapt.cfg.Epoch
	if epoch <= 0 {
		return
	}
	tx.sinceAdapt++
	if tx.sinceAdapt < epoch {
		return
	}
	tx.sinceAdapt = 0
	rt.maybeAdapt()
}

// contentionAborts counts the aborts of a snapshot window that indicate
// data contention: failed validations, flipped semantic facts, locked
// ownership records, and capacity overflow (HTM tracked-set exhaustion).
// Spurious aborts (simulated-hardware noise and injected faults) and
// explicit restarts are excluded — they say nothing about which
// concurrency control would do better, and counting them would let a fault
// plan or a Restart loop thrash the ladder.
func contentionAborts(d core.Snapshot) uint64 {
	return d.AbortReasons[core.ReasonValidation] +
		d.AbortReasons[core.ReasonCmpFlip] +
		d.AbortReasons[core.ReasonOrecLocked] +
		d.AbortReasons[core.ReasonCapacity] +
		d.AbortReasons[core.ReasonHWConflict] +
		d.AbortReasons[core.ReasonHWCapacity]
}

// capacityAborts counts the aborts of a snapshot window that indicate the
// footprint outgrew a bounded resource — the signal the capacity-escalation
// rule keys on when the current rung is HTM-backed.
func capacityAborts(d core.Snapshot) uint64 {
	return d.AbortReasons[core.ReasonCapacity] +
		d.AbortReasons[core.ReasonHWCapacity]
}

// maybeAdapt runs one policy evaluation: judge the abort mix since the last
// judged window and walk the ladder if it crosses a threshold. Contended
// evaluations are skipped rather than queued — with many descriptors hitting
// epoch boundaries, one judgment per window is plenty.
func (rt *Runtime) maybeAdapt() {
	a := rt.adapt
	if !a.mu.TryLock() {
		return
	}
	defer a.mu.Unlock()
	snap := rt.stats.Snapshot()
	d := snap.Sub(a.last)
	sample := d.Commits + d.Aborts
	if sample < a.cfg.MinSample {
		return // window too small to judge; keep accumulating
	}
	a.last = snap
	if a.dwell > 0 {
		a.dwell--
		return
	}
	pct := 100 * float64(contentionAborts(d)) / float64(sample)
	onHW := engineIsHTMBacked(a.cfg.Ladder[a.pos])
	capPct := 0.0
	if onHW {
		capPct = 100 * float64(capacityAborts(d)) / float64(sample)
	}
	var target int
	switch {
	case pct >= a.cfg.EscalatePct && a.pos+1 < len(a.cfg.Ladder):
		target = a.pos + 1
	case onHW && a.cfg.CapacityEscalatePct >= 0 &&
		capPct >= a.cfg.CapacityEscalatePct && a.pos+1 < len(a.cfg.Ladder):
		// Capacity aborts are footprint, not contention: leave the hardware
		// tier at a much lower threshold than the conflict rule.
		target = a.pos + 1
	case a.cfg.DeescalatePct >= 0 && pct <= a.cfg.DeescalatePct && a.pos > 0:
		target = a.pos - 1
	default:
		return
	}
	if rt.switchTo(a.cfg.Ladder[target], false) {
		down := target < a.pos
		a.pos = target
		a.dwell = a.cfg.MinDwell
		if down && engineIsHTMBacked(a.cfg.Ladder[target]) {
			// Sticky re-entry: being wrong about a hardware tier is the most
			// expensive mistake the ladder can make.
			a.dwell = 2 * a.cfg.MinDwell
		}
	}
}

// engineIsHTMBacked reports whether the registered engine runs on the
// simulated hardware path.
func engineIsHTMBacked(alg Algorithm) bool {
	d, ok := core.EngineFor(alg)
	return ok && d.HTMBacked
}

// SwitchEngine forces an Adaptive runtime onto the given engine through the
// same quiescent transition the policy uses, blocking until the switch
// completes. It returns an error on a non-adaptive runtime or a target that
// is not a registered concrete engine. If the target sits on the configured
// ladder the policy resumes from that rung; either way the policy keeps
// running afterwards (disable it with a negative Epoch for manual control).
func (rt *Runtime) SwitchEngine(target Algorithm) error {
	if rt.adapt == nil {
		return fmt.Errorf("stm: SwitchEngine on a non-adaptive %v runtime", rt.algo)
	}
	if d, ok := core.EngineFor(target); !ok || d.Composite {
		return fmt.Errorf("stm: SwitchEngine target %d is not a concrete engine", int(target))
	}
	a := rt.adapt
	a.mu.Lock()
	defer a.mu.Unlock()
	rt.switchTo(target, true)
	a.pos = 0
	for i, alg := range a.cfg.Ladder {
		if alg == target {
			a.pos = i
			break
		}
	}
	a.dwell = a.cfg.MinDwell
	a.last = rt.stats.Snapshot()
	return nil
}

// switchTo performs the quiescent engine transition. It serializes against
// irrevocable escalations and other switches through the escalator mutex
// (TryLock on the policy path — a switch that loses to an escalation is
// simply retried at a later epoch), then raises the gate so no new attempt
// starts, drains the in-flight attempts, publishes the new slot, and drops
// the gate. It reports whether the transition ran.
func (rt *Runtime) switchTo(target Algorithm, block bool) bool {
	if block {
		rt.esc.mu.Lock()
	} else if !rt.esc.mu.TryLock() {
		return false
	}
	defer rt.esc.mu.Unlock()
	if rt.cur.Load().algo == target {
		return true // already there (raced with SwitchEngine)
	}
	rt.esc.gate.Store(1)
	defer rt.esc.gate.Store(0)
	rt.drainAttempts()
	rt.cur.Store(&engineSlot{algo: target, eng: rt.engineFor(target)})
	rt.stats.CountEngineSwitch()
	return true
}

// drainAttempts waits until no attempt is executing. Called with the gate
// raised, so the in-flight set is finite and strictly shrinking: an attempt
// either entered before the gate (its active flag is up and will drop at
// commit/abort) or it parks at the gate and never raises the flag.
func (rt *Runtime) drainAttempts() {
	rt.descMu.Lock()
	descs := make([]*Tx, len(rt.descs))
	copy(descs, rt.descs)
	rt.descMu.Unlock()
	for _, tx := range descs {
		for tx.active.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// enterAttempt is the attempt-side half of the switch protocol, run before
// every non-escalated attempt of an adaptive runtime: bind to the current
// engine, raise the active flag, then re-check that no switch is pending or
// has completed (the flag-then-check order pairs with the switcher's
// gate-then-drain order — seq-cst atomics make at least one side see the
// other, so no attempt of a superseded engine slips past a drain). It
// reports false only when done fires while parked at the gate.
func (rt *Runtime) enterAttempt(tx *Tx, done <-chan struct{}) bool {
	for {
		if slot := rt.cur.Load(); tx.slot != slot {
			tx.rebind(slot)
		}
		tx.active.Store(1)
		if rt.esc.gate.Load() == 0 && rt.cur.Load() == tx.slot {
			return true
		}
		// A switch (or an escalation) is pending or just completed: back
		// out, park until the gate drops, and re-bind.
		tx.active.Store(0)
		if !rt.esc.wait(done) {
			return false
		}
	}
}

func init() {
	core.RegisterEngine(core.EngineDesc{
		ID:           core.EngineAdaptive,
		Name:         "Adaptive",
		DisplayOrder: 11,
		// The default ladder is all-semantic, and semantic calls are honored
		// as facts whenever the current engine supports them.
		Semantic:  true,
		Composite: true,
	})
}
