// Package stm is the public API of the semantic software transactional
// memory library, a Go reproduction of "Extending TM Primitives using Low
// Level Semantics" (Saad, Palmieri, Hassan, Ravindran; SPAA 2016).
//
// The library provides the four classical TM constructs — transaction
// boundaries plus Read and Write barriers — and the paper's TM-friendly
// semantic extensions of Table 1: the six conditional operators (GT, GTE,
// LT, LTE, EQ, NEQ, in both address–value and address–address form) and
// Inc/Dec. Semantic operations record *facts* ("x > 0") instead of values,
// so concurrent writers that do not change the fact's outcome no longer
// abort the reader; increments defer their read to commit time.
//
// Engines are registered, not hard-wired: every STM algorithm lives in the
// core engine registry with a capability descriptor (semantic facts,
// composed expressions, irrevocability, HTM backing), and a Runtime is bound
// to one registered engine — NOrec and TL2 (the classical baselines, which
// transparently delegate semantic calls to classical barriers), their
// semantic extensions S-NOrec and S-TL2 (Algorithms 6 and 7 of the paper),
// a simulated best-effort HTM pair, a single-global-lock sanity baseline —
// or to Adaptive, which starts on one engine and switches engines online
// from abort telemetry through a quiescent transition (see adaptive.go).
//
// Basic use:
//
//	rt := stm.New(stm.SNOrec)
//	x := stm.NewVar(5)
//	rt.Atomically(func(tx *stm.Tx) {
//		if tx.GT(x, 0) {
//			tx.Inc(x, -1)
//		}
//	})
package stm

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semstm/internal/core"
	"semstm/internal/htm"
	"semstm/internal/shard"

	// The backend packages register their engines into the core registry at
	// init time; linking them here is what makes every algorithm selectable
	// through stm.New.
	_ "semstm/internal/norec"
	_ "semstm/internal/sgl"
	_ "semstm/internal/tl2"
)

// Var is a transactional memory cell holding one 64-bit signed word. Allocate
// with NewVar/NewVars; access inside transactions through Tx methods.
type Var = core.Var

// Op is a semantic comparison operator.
type Op = core.Op

// The six conditional operators of the extended TM API (Table 1).
const (
	OpEQ  = core.OpEQ
	OpNEQ = core.OpNEQ
	OpGT  = core.OpGT
	OpGTE = core.OpGTE
	OpLT  = core.OpLT
	OpLTE = core.OpLTE
)

// Snapshot is a point-in-time copy of a runtime's aggregate counters.
type Snapshot = core.Snapshot

// Cond is one clause of a composed condition for Tx.CmpAny: "*Var Op
// Operand".
type Cond = core.Cond

// NewVar allocates a transactional variable with the given initial value.
func NewVar(initial int64) *Var { return core.NewVar(initial) }

// NewVars allocates n transactional variables in one contiguous block.
func NewVars(n int, initial int64) []*Var { return core.NewVars(n, initial) }

// NewVarOn allocates a transactional variable with the given initial value
// and shard affinity (see NewShardedRuntime). Unsharded runtimes ignore the
// assignment.
func NewVarOn(shard int, initial int64) *Var { return core.NewVarOn(shard, initial) }

// NewVarsOn allocates n transactional variables in one contiguous block, all
// assigned to the given shard.
func NewVarsOn(shard, n int, initial int64) []*Var { return core.NewVarsOn(shard, n, initial) }

// Algorithm selects the STM engine backing a Runtime. It aliases the core
// registry's engine identifier: String(), Semantic(), and the set returned
// by Algorithms() all come from the registered engine descriptors rather
// than per-algorithm switch statements.
type Algorithm = core.EngineID

const (
	// NOrec is the value-based baseline [PPoPP 2010]; semantic calls are
	// delegated to classical read/write barriers.
	NOrec = core.EngineNOrec
	// SNOrec is S-NOrec, Algorithm 6 of the paper: NOrec with semantic
	// validation, compare facts, and deferred increments.
	SNOrec = core.EngineSNOrec
	// TL2 is the version-based baseline [DISC 2006]; semantic calls are
	// delegated to classical read/write barriers.
	TL2 = core.EngineTL2
	// STL2 is S-TL2, Algorithm 7 of the paper: TL2 with a compare-set,
	// phase-1 start-version extension, and CAS-based clock increments.
	STL2 = core.EngineSTL2
	// SGL is a single-global-lock baseline (not in the paper's plots;
	// used for testing and sanity comparisons).
	SGL = core.EngineSGL
	// HTM is a simulated best-effort hardware TM with a single-global-lock
	// fallback (capacity limits, spurious aborts, lock subscription) — the
	// hybrid-TM substrate of the paper's introduction.
	HTM = core.EngineHTM
	// SHTM applies the semantic primitives to the simulated hardware path
	// (the paper's stated future work): facts and deferred increments
	// shrink the tracked set, saving capacity aborts as well as conflicts.
	SHTM = core.EngineSHTM
	// Adaptive is the composite policy engine: the runtime starts on the
	// first engine of its AdaptiveConfig ladder and switches engines online
	// when the per-epoch abort-reason mix says a different concurrency
	// control would win (see adaptive.go and DESIGN.md §9).
	Adaptive = core.EngineAdaptive
	// HyTM is the progressive hybrid engine (DESIGN.md §13): an
	// uninstrumented hardware fast path (no read-set, no facts — one
	// conflict-detection-epoch load per barrier), an instrumented hardware
	// middle path that coexists with software transactions, and a software
	// slow path, with typed abort reasons (AbortHWConflict, AbortHWCapacity)
	// driving per-path demotion.
	HyTM = core.EngineHyTM
	// HyTMMid is HyTM with the fast path forced off — every hardware attempt
	// starts on the instrumented middle path. It is the instrumentation-cost
	// ablation cell the EXPERIMENTS.md hybrid table compares HyTM against.
	HyTMMid = core.EngineHyTMMid

	numAlgorithms = core.NumEngines
)

// Algorithms lists every selectable algorithm in display order, straight
// from the engine registry.
func Algorithms() []Algorithm {
	descs := core.Engines()
	out := make([]Algorithm, 0, len(descs))
	for _, d := range descs {
		out = append(out, d.ID)
	}
	return out
}

// engineSlot pairs a concrete engine instance with its algorithm. The
// runtime publishes the current slot through one atomic pointer, so a
// descriptor can detect a superseded binding by pointer identity alone.
type engineSlot struct {
	algo Algorithm
	eng  core.Engine
}

// Runtime is an STM instance: one engine (or, for Adaptive, a set of engines
// behind one current slot), the engine's global metadata, and aggregate
// statistics. Independent Runtimes do not synchronize with each other, so a
// Var must only ever be accessed through a single Runtime at a time.
type Runtime struct {
	algo  Algorithm
	stats core.Stats
	// nshards is 0 on classic runtimes (New) and the shard count on sharded
	// runtimes (NewShardedRuntime) — where every engine instance is wrapped
	// in a shard.Engine partition.
	nshards int

	// cur is the engine executing new attempts. Fixed runtimes store it once
	// at construction; Adaptive runtimes replace it inside the quiescent
	// switch protocol (adaptive.go).
	cur atomic.Pointer[engineSlot]
	// engines holds the lazily created engine instances, indexed by
	// algorithm; engMu guards the slots (switches, stats probes).
	engMu   sync.Mutex
	engines [numAlgorithms]core.Engine

	// descs lists every descriptor ever built for this runtime, so an engine
	// switch can wait for the in-flight attempts to drain.
	descMu sync.Mutex
	descs  []*Tx

	// adapt is the online-switching controller; nil on fixed runtimes, which
	// is also the fast-path discriminator in the retry loop.
	adapt *adaptiveState

	txPool     sync.Pool
	yieldEvery int
	esc        escalator // quiesce protocol of the irrevocable mode and of engine switches

	// walLogger is the durable redo sink installed on every sharded engine
	// instance the runtime builds (OpenDurable); nil on volatile runtimes.
	// walFacts additionally logs single-variable cmp outcomes as
	// self-checking fact records.
	walLogger shard.Logger
	walFacts  bool

	// Ablation and tuning knobs, set before the runtime is shared.
	dedupReads    bool
	noExtend      bool
	backoff       BackoffPolicy
	htmCapacity   int
	htmRetries    int
	htmSpurious   float64
	faultPlan     *core.FaultPlan
	escalateAfter int
}

// New creates a runtime for the given algorithm. The algorithm must be
// registered in the engine registry (every Algorithm constant is).
func New(algo Algorithm) *Runtime { return newRuntime(algo, 0, nil, false) }

// NewShardedRuntime creates a runtime whose engine is partitioned into
// nshards independent instances — per-shard TL2 clocks and orec tables,
// per-shard NOrec sequence locks (DESIGN.md §11). Variables carry a shard
// assignment from NewVarOn/NewVarsOn; a transaction that touches one shard
// runs the engine completely unchanged against that shard's private metadata,
// and a transaction that spans shards commits through the two-phase
// cross-shard protocol. The engine must support sharding: every concrete
// engine of the TL2/NOrec families does (two-phase commit), SGL degenerates
// to one serializing instance, and Adaptive requires a ladder of shardable
// engines (the default ladder qualifies); other engines panic here.
// NewShardedRuntime(algo, 1) is a valid single-partition runtime — useful as
// the 1-shard cell of scaling measurements, since it pays the same routing
// costs as wider partitions.
func NewShardedRuntime(algo Algorithm, nshards int) *Runtime {
	if nshards < 1 {
		panic(fmt.Sprintf("stm: invalid shard count %d", nshards))
	}
	desc, ok := core.EngineFor(algo)
	if !ok {
		panic(fmt.Sprintf("stm: unknown algorithm %d", int(algo)))
	}
	if !desc.Composite && !desc.TwoPhase && !desc.Irrevocable {
		panic(fmt.Sprintf("stm: engine %q cannot be sharded (no two-phase commit)", desc.Name))
	}
	return newRuntime(algo, nshards, nil, false)
}

func newRuntime(algo Algorithm, nshards int, logger shard.Logger, logFacts bool) *Runtime {
	desc, ok := core.EngineFor(algo)
	if !ok {
		panic(fmt.Sprintf("stm: unknown algorithm %d", int(algo)))
	}
	rt := &Runtime{
		algo:          algo,
		nshards:       nshards,
		walLogger:     logger,
		walFacts:      logFacts,
		htmCapacity:   htm.DefaultCapacity,
		htmRetries:    htm.DefaultMaxHWRetries,
		htmSpurious:   htm.DefaultSpuriousPct,
		escalateAfter: DefaultEscalateAfter,
	}
	if desc.Composite {
		rt.adapt = newAdaptiveState()
		first := rt.adapt.cfg.Ladder[0]
		rt.cur.Store(&engineSlot{algo: first, eng: rt.engineFor(first)})
	} else {
		rt.cur.Store(&engineSlot{algo: algo, eng: rt.engineFor(algo)})
	}
	rt.txPool.New = func() any { return rt.newTx() }
	return rt
}

// engineFor returns this runtime's instance of the algorithm's engine,
// creating it on first use. Lazy creation matters for Adaptive: engines the
// policy never switches to (a 4 MiB TL2 orec table, say) are never built.
func (rt *Runtime) engineFor(algo Algorithm) core.Engine {
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	if rt.engines[algo] == nil {
		desc, ok := core.EngineFor(algo)
		if !ok || desc.Composite {
			panic(fmt.Sprintf("stm: %v is not a concrete engine", algo))
		}
		if rt.nshards > 0 {
			se := shard.NewEngine(desc, rt.nshards)
			if rt.walLogger != nil {
				se.SetLogger(rt.walLogger, rt.walFacts)
			}
			rt.engines[algo] = se
		} else {
			rt.engines[algo] = desc.New()
		}
	}
	return rt.engines[algo]
}

// txConfig snapshots the runtime's descriptor-level knobs for an engine's
// NewTx. Every field is filled; engines apply the subset they understand.
func (rt *Runtime) txConfig() core.TxConfig {
	return core.TxConfig{
		DedupReads:  rt.dedupReads,
		NoExtend:    rt.noExtend,
		HTMCapacity: rt.htmCapacity,
		HTMRetries:  rt.htmRetries,
		HTMSpurious: rt.htmSpurious,
		Seed:        uniqueSeed(),
	}
}

// newTx builds a fresh transaction descriptor bound to the current engine.
// Each descriptor registers its own stats shard: descriptors are owned by
// one goroutine at a time (sync.Pool), so commit/abort folding stays on
// thread-private cache lines instead of contending on global counters.
// RNG seeds come from uniqueSeed, not the raw clock: descriptors allocated
// in the same nanosecond must not share backoff or spurious-abort streams.
// The generator is math/rand/v2 (PCG): the v1 rand.Seed path is deprecated,
// and the v2 PCG is both cheaper per draw and seedable per descriptor.
func (rt *Runtime) newTx() *Tx {
	tx := &Tx{
		rt:    rt,
		shard: rt.stats.Register(),
		rng:   rand.New(rand.NewPCG(uint64(uniqueSeed()), uint64(uniqueSeed()))),
		pin:   core.RegisterEpochPin(),
	}
	tx.rebind(rt.cur.Load())
	rt.descMu.Lock()
	rt.descs = append(rt.descs, tx)
	rt.descMu.Unlock()
	return tx
}

// epochResetter is the optional TxImpl interface for per-call (as opposed to
// per-attempt) state resets; the HTM backends use it to reset their
// hardware-failure budget. The assertion is cached on the descriptor at
// rebind time: asserting on every Atomically call showed up in the escape
// audit as a per-call dynamic type check on the hot path.
type epochResetter interface{ NewEpoch() }

// rebind points the descriptor at an engine slot, building a fresh
// engine-level descriptor from it. Called at construction and whenever the
// retry loop observes that an engine switch superseded the binding. A
// revocable engine registered without semantic support gets its semantic
// calls through core.Baseline — the paper's baseline builds, delegated here
// once instead of in every engine. An irrevocable engine (SGL) evaluates
// them in place, where there is nothing to validate and so nothing to
// delegate. The view is held by value and called statically, so a delegated
// call costs one dispatch (to the engine's Read or Write), not two; each
// semantic method tests tx.baseline itself rather than through a shared
// helper, which would add a call to every operation.
func (tx *Tx) rebind(slot *engineSlot) {
	tx.slot = slot
	tx.impl = slot.eng.NewTx(tx.rt.txConfig())
	tx.base = core.Baseline{TxImpl: tx.impl}
	d, _ := core.EngineFor(slot.algo)
	tx.baseline = !d.Semantic && !d.Irrevocable
	tx.epoch, _ = tx.impl.(epochResetter)
	tx.priv, _ = tx.impl.(core.Privatizer)
	tx.impl.SetFaultPlan(tx.rt.faultPlan)
}

// poisonedReason is the out-of-range sentinel releaseTx stamps on a
// descriptor's per-call state. Any code path that reads a released
// descriptor's reason before an attempt rewrote it surfaces the value as the
// "invalid" bucket (Reason.String) instead of silently reporting the
// previous transaction's reason — the pool-reuse analogue of poisoning freed
// memory.
const poisonedReason = AbortReason(core.NumReasons)

// releaseTx returns a descriptor to the pool, poisoning per-call state so
// leaks between logically distinct transactions are detectable (the
// descriptor-reuse fuzz test asserts no poison is ever observed).
func (rt *Runtime) releaseTx(tx *Tx) {
	if tx.active.Load() != 0 {
		panic("stm: descriptor released with an attempt still active")
	}
	tx.lastReason = poisonedReason
	rt.txPool.Put(tx)
}

// Algorithm reports which algorithm the runtime was created with (Adaptive
// for adaptive runtimes; see CurrentAlgorithm for the live engine).
func (rt *Runtime) Algorithm() Algorithm { return rt.algo }

// CurrentAlgorithm reports the concrete engine currently executing new
// attempts: equal to Algorithm() on fixed runtimes, and the engine the
// adaptive controller most recently switched to on Adaptive runtimes.
func (rt *Runtime) CurrentAlgorithm() Algorithm { return rt.cur.Load().algo }

// SetYieldEvery makes every transaction yield the processor after each n
// transactional operations (0 disables). On machines with few cores,
// goroutines rarely preempt mid-transaction, which hides the conflict
// dynamics a multicore exhibits; the benchmark harness enables this to
// simulate concurrent interleaving (see DESIGN.md). It must be set before
// the runtime is shared between goroutines.
func (rt *Runtime) SetYieldEvery(n int) { rt.yieldEvery = n }

// SetReadDedup enables read-after-read de-duplication in the NOrec family —
// the trade-off Section 4.1 of the paper discusses (the scan cost versus
// redundant read-set entries). Off by default, matching the paper.
func (rt *Runtime) SetReadDedup(on bool) { rt.dedupReads = on }

// SetNoExtend disables S-TL2's phase-1 snapshot extension (an ablation of
// the optimization of Algorithm 7 lines 19-25). Off by default.
func (rt *Runtime) SetNoExtend(on bool) { rt.noExtend = on }

// SetBackoff selects the contention-management policy applied between
// attempts.
func (rt *Runtime) SetBackoff(p BackoffPolicy) { rt.backoff = p }

// ConfigureHTM tunes the simulated hardware: tracked-location capacity,
// hardware retries before fallback, and spurious-abort percentage. It only
// affects the HTM-backed algorithms (HTM, S-HTM, HyTM, HyTM-mid). A capacity
// of zero or below fits no location, so every hardware attempt that touches
// one fails with a capacity abort; all three arguments zero keep the defaults.
func (rt *Runtime) ConfigureHTM(capacity, retries int, spuriousPct float64) {
	rt.htmCapacity = capacity
	rt.htmRetries = retries
	rt.htmSpurious = spuriousPct
}

// htmReporter is the optional interface HTM-backed engines expose for the
// fallback and hardware-abort tallies.
type htmReporter interface {
	Fallbacks() uint64
	HWAborts() uint64
}

// HTMStats reports (fallbacks, hardwareAborts) summed over the runtime's
// HTM-backed engines, and zeros for runtimes that never ran one.
func (rt *Runtime) HTMStats() (fallbacks, hwAborts uint64) {
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	for _, eng := range rt.engines {
		if r, ok := eng.(htmReporter); ok {
			fallbacks += r.Fallbacks()
			hwAborts += r.HWAborts()
		}
	}
	return fallbacks, hwAborts
}

// Stats returns a snapshot of the aggregate counters (commits, aborts, and
// per-category operation counts — the raw material of Table 3).
func (rt *Runtime) Stats() Snapshot { return rt.stats.Snapshot() }

// Shards reports the runtime's shard count: 0 for classic runtimes, the
// NewShardedRuntime count otherwise.
func (rt *Runtime) Shards() int { return rt.nshards }

// ShardStats is a point-in-time copy of one shard's commit counters.
type ShardStats struct {
	// SingleCommits counts transactions that touched only this shard and
	// committed through its engine unchanged (the zero-cross-traffic path).
	SingleCommits uint64
	// CrossCommits counts two-phase cross-shard commits this shard
	// participated in.
	CrossCommits uint64
	// BatchedRequests counts the logical requests folded into this shard's
	// commits by AtomicallyBatch callers (the coalescing server front-end);
	// BatchedRequests/SingleCommits is the shard's observed amortization
	// factor.
	BatchedRequests uint64
}

// ShardStats returns the per-shard commit counters, summed over every engine
// instance the runtime has built (an Adaptive runtime accumulates across its
// ladder rungs). It returns nil on classic runtimes.
func (rt *Runtime) ShardStats() []ShardStats {
	if rt.nshards == 0 {
		return nil
	}
	out := make([]ShardStats, rt.nshards)
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	for _, eng := range rt.engines {
		se, ok := eng.(*shard.Engine)
		if !ok {
			continue
		}
		for i, sn := range se.Snapshots() {
			out[i].SingleCommits += sn.SingleCommits
			out[i].CrossCommits += sn.CrossCommits
			out[i].BatchedRequests += sn.BatchedRequests
		}
	}
	return out
}

// ShardTicket returns the cross-shard commit ticket, summed over every
// sharded engine instance — zero exactly when no cross-shard commit has run.
func (rt *Runtime) ShardTicket() uint64 {
	var t uint64
	rt.engMu.Lock()
	defer rt.engMu.Unlock()
	for _, eng := range rt.engines {
		if se, ok := eng.(*shard.Engine); ok {
			t += se.Ticket()
		}
	}
	return t
}

// ShardClock probes shard s's commit metadata (TL2 version clock or NOrec
// sequence lock) on the engine currently executing new attempts. The second
// result is false on classic runtimes, out-of-range shards, and engines
// without a clock probe. Routing tests use it to assert that single-shard
// traffic never moves another shard's clock.
func (rt *Runtime) ShardClock(s int) (uint64, bool) {
	if se, ok := rt.cur.Load().eng.(*shard.Engine); ok {
		return se.ClockValue(s)
	}
	return 0, false
}

// Atomically executes fn as one transaction, retrying on conflict until it
// commits. The function may run several times; it must confine its side
// effects to transactional variables (and idempotent local state). A panic
// other than the internal abort signal propagates to the caller after the
// attempt is rolled back. A transaction that aborts EscalateAfter times in a
// row escalates to the irrevocable serializing mode and is guaranteed to
// commit (see progress.go); use AtomicallyCtx or TryAtomically for bounded
// execution.
func (rt *Runtime) Atomically(fn func(tx *Tx)) {
	rt.run(fn, runCfg{}) // unbounded: the only exit is a commit
}

// tryOnce runs a single attempt, returning whether it committed and, on
// abort, the typed reason (also latched on the descriptor for the retry
// engine's reason log).
func (rt *Runtime) tryOnce(tx *Tx, fn func(tx *Tx), cfg runCfg) (committed bool, reason AbortReason) {
	defer func() {
		if r := recover(); r != nil {
			tx.impl.Cleanup()
			tx.shard.Merge(tx.impl.AttemptStats(), false)
			// The attempt is rolled back: run the abort hooks (allocator
			// reclamation and the like) before anything can observe the
			// descriptor again — for user panics too, since the body will not
			// re-run and whatever the hooks guard would otherwise leak.
			tx.runAbortHooks()
			if !core.IsAbort(r) {
				// A user panic unwinds straight past the retry loop's normal
				// active-flag clear; drop the flag here or the descriptor
				// would re-enter the pool still marked in-flight (which an
				// adaptive drain would wait on forever, and which releaseTx
				// now rejects).
				tx.active.Store(0)
				panic(r)
			}
			reason, _ = core.ReasonOf(r)
			tx.lastReason = reason
			tx.shard.CountAbortReason(reason)
		}
	}()
	tx.clearAbortHooks()
	tx.impl.Start()
	fn(tx)
	if cfg.privatize && tx.priv != nil {
		tx.priv.CommitPrivatize()
	} else {
		tx.impl.Commit()
	}
	if cfg.batchUnits > 0 {
		noteBatch(tx, cfg.batchUnits)
	}
	tx.shard.Merge(tx.impl.AttemptStats(), true)
	tx.clearAbortHooks()
	return true, AbortUnknown
}

// Run executes fn transactionally and returns its result, a convenience for
// read-mostly transactions that produce a value.
func Run[T any](rt *Runtime, fn func(tx *Tx) T) T {
	var out T
	rt.Atomically(func(tx *Tx) { out = fn(tx) })
	return out
}

// Tx is a live transaction handle, valid only inside the function passed to
// Atomically, and only on the goroutine that received it.
type Tx struct {
	rt         *Runtime
	impl       core.TxImpl
	base       core.Baseline    // impl's non-semantic view, used when baseline is set
	baseline   bool             // impl's engine delegates its semantic calls (rebind)
	epoch      epochResetter    // impl's cached NewEpoch assertion; nil if absent
	priv       core.Privatizer  // impl's cached privatizing-commit assertion
	slot       *engineSlot      // the engine binding impl was built from
	pin        *core.EpochPin   // reclamation-epoch pin (held across each run)
	shard      *core.StatsShard // this descriptor's slice of the runtime counters
	rng        *rand.Rand
	ops        int
	lastReason AbortReason // reason of the most recent aborted attempt
	// reasonBuf backs the bounded-mode abort-reason log of run(): recording a
	// reason is a store into this descriptor-owned ring rather than a slice
	// append, so TryAtomically/AtomicallyCtx allocate only when they actually
	// fail (runErr copies the buffer into the returned AbortError).
	reasonBuf [abortReasonCap]AbortReason

	// active is 1 while an attempt is executing between the switch-gate
	// check and its commit/abort; the engine-switch drain waits on it. Only
	// adaptive runtimes use it (see Runtime.enterAttempt).
	active atomic.Uint32
	// sinceAdapt counts attempts since this descriptor last triggered a
	// policy evaluation.
	sinceAdapt int

	// abortHooks are per-attempt callbacks registered with OnAbort, run after
	// an attempt's rollback and discarded on commit. Transaction-aware
	// allocators (internal/txds) use them to reclaim side-effect allocations
	// the engine's rollback cannot see.
	abortHooks []func()
}

// OnAbort registers fn to run if — and only if — the current attempt aborts,
// after the engine has rolled the attempt back. Hooks registered during an
// attempt are discarded when that attempt commits, and the set starts empty
// on every attempt, so a hook never outlives (or predates) the attempt that
// registered it. Hooks run in registration order on the transaction's
// goroutine; they must not use tx.
//
// This is the reclamation channel for non-transactional side effects of a
// transaction body: a pool allocator that hands out a node inside an attempt
// registers a hook returning it to the free list, so an aborted insert does
// not leak the node (the engine only rolls back Var writes).
func (tx *Tx) OnAbort(fn func()) {
	tx.abortHooks = append(tx.abortHooks, fn)
}

// runAbortHooks fires the attempt's abort hooks in registration order and
// clears the set.
func (tx *Tx) runAbortHooks() {
	for i, fn := range tx.abortHooks {
		tx.abortHooks[i] = nil
		fn()
	}
	tx.abortHooks = tx.abortHooks[:0]
}

// clearAbortHooks discards the attempt's abort hooks without running them
// (commit path, and attempt start), nilling entries so pooled descriptors do
// not retain closures.
func (tx *Tx) clearAbortHooks() {
	if len(tx.abortHooks) == 0 {
		return
	}
	for i := range tx.abortHooks {
		tx.abortHooks[i] = nil
	}
	tx.abortHooks = tx.abortHooks[:0]
}

// BackoffPolicy selects how a transaction waits between attempts — the
// contention-manager choice the TM literature studies ([Scherer & Scott,
// PODC 2005]); the ablation benchmarks compare them.
type BackoffPolicy int

const (
	// BackoffExp (default): a few polite yields, then randomized
	// exponential sleeps.
	BackoffExp BackoffPolicy = iota
	// BackoffYield: always just yield the processor.
	BackoffYield
	// BackoffNone: retry immediately.
	BackoffNone
)

// maybeYield implements the interleave simulation of SetYieldEvery.
func (tx *Tx) maybeYield() {
	if n := tx.rt.yieldEvery; n > 0 {
		tx.ops++
		if tx.ops%n == 0 {
			runtime.Gosched()
		}
	}
}

// backoff applies the runtime's contention-management policy between
// attempts. The default is randomized exponential backoff: polite yields for
// the first conflicts, short randomized sleeps after that. Two progress
// amendments: budget caps the cumulative sleep of one Atomically-family call
// (once spent, backoff degrades to yields, so a starving transaction reaches
// its escalation threshold in bounded time), and a non-nil done channel
// cuts any sleep short on cancellation.
func (tx *Tx) backoff(attempt int, done <-chan struct{}, budget *time.Duration) {
	switch tx.rt.backoff {
	case BackoffNone:
		return
	case BackoffYield:
		runtime.Gosched()
		return
	}
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	shift := attempt
	if shift > 12 {
		shift = 12
	}
	max := 1 << shift // microseconds
	d := time.Duration(1+tx.rng.IntN(max)) * time.Microsecond
	if d > *budget {
		d = *budget
	}
	if d <= 0 {
		runtime.Gosched()
		return
	}
	*budget -= d
	if done == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
}

// Read is the classical TM_READ barrier: it returns the transactional value
// of v.
func (tx *Tx) Read(v *Var) int64 { tx.maybeYield(); return tx.impl.Read(v) }

// Write is the classical TM_WRITE barrier: it buffers the store of val to v.
func (tx *Tx) Write(v *Var, val int64) { tx.maybeYield(); tx.impl.Write(v, val) }

// Cmp evaluates the semantic conditional "*v op operand" (TM_GT and friends,
// address–value form).
func (tx *Tx) Cmp(v *Var, op Op, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, op, operand)
	}
	return tx.impl.Cmp(v, op, operand)
}

// CmpVars evaluates the address–address conditional "*a op *b" (_ITM_S2R).
func (tx *Tx) CmpVars(a *Var, op Op, b *Var) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.CmpVars(a, op, b)
	}
	return tx.impl.CmpVars(a, op, b)
}

// GT reports whether *v > operand (TM_GT).
func (tx *Tx) GT(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpGT, operand)
	}
	return tx.impl.Cmp(v, core.OpGT, operand)
}

// GTE reports whether *v >= operand (TM_GTE).
func (tx *Tx) GTE(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpGTE, operand)
	}
	return tx.impl.Cmp(v, core.OpGTE, operand)
}

// LT reports whether *v < operand (TM_LT).
func (tx *Tx) LT(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpLT, operand)
	}
	return tx.impl.Cmp(v, core.OpLT, operand)
}

// LTE reports whether *v <= operand (TM_LTE).
func (tx *Tx) LTE(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpLTE, operand)
	}
	return tx.impl.Cmp(v, core.OpLTE, operand)
}

// EQ reports whether *v == operand (TM_EQ).
func (tx *Tx) EQ(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpEQ, operand)
	}
	return tx.impl.Cmp(v, core.OpEQ, operand)
}

// NEQ reports whether *v != operand (TM_NEQ).
func (tx *Tx) NEQ(v *Var, operand int64) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.Cmp(v, core.OpNEQ, operand)
	}
	return tx.impl.Cmp(v, core.OpNEQ, operand)
}

// Inc adds delta (which may be negative) to *v (TM_INC / TM_DEC). The read
// half of the update is deferred to commit time unless a later read of v in
// the same transaction promotes it.
func (tx *Tx) Inc(v *Var, delta int64) {
	tx.maybeYield()
	if tx.baseline {
		tx.base.Inc(v, delta)
		return
	}
	tx.impl.Inc(v, delta)
}

// Dec subtracts delta from *v; Dec(v, d) is Inc(v, -d).
func (tx *Tx) Dec(v *Var, delta int64) {
	tx.maybeYield()
	if tx.baseline {
		tx.base.Inc(v, -delta)
		return
	}
	tx.impl.Inc(v, -delta)
}

// CmpSum evaluates the arithmetic conditional "(*vars[0] + *vars[1] + ...)
// op rhs". Under S-NOrec and S-HTM the whole comparison is one semantic
// fact, so compensating changes to the addends never abort the reader (the
// "x + y > 0" extension of the paper's technical report); other algorithms
// delegate to classical reads.
func (tx *Tx) CmpSum(op Op, rhs int64, vars ...*Var) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.CmpSum(op, rhs, vars)
	}
	return tx.impl.CmpSum(op, rhs, vars)
}

// CmpAny evaluates the composed condition "c1 || c2 || ...". Under S-NOrec
// and S-HTM the disjunction is one semantic fact — a clause may flip as long
// as the overall outcome holds (the full-strength version of the paper's
// Algorithm 1 example); S-TL2 records each evaluated clause as its own fact.
func (tx *Tx) CmpAny(conds ...Cond) bool {
	tx.maybeYield()
	if tx.baseline {
		return tx.base.CmpAny(conds)
	}
	return tx.impl.CmpAny(conds)
}

// Restart aborts the current attempt and re-executes the transaction from
// the beginning (an external abort in TM terms); the attempt is recorded
// with AbortExplicit. An unconditional Restart defeats every progress
// guarantee, including escalation — the retry-loop idiom is to Restart only
// while a predicate fails.
func (tx *Tx) Restart() { core.AbortWith(core.ReasonExplicit) }
