package core

import (
	"fmt"
	"sort"
	"sync"
)

// EngineID identifies one registered STM engine. The public stm.Algorithm
// type is an alias of EngineID, so the same values select engines at the
// facade and index the registry here. IDs are array indices only and are
// never persisted: reports and the CLI refer to engines by name and the WAL
// manifest records no engine, so the numbering may change between releases.
type EngineID int

// The registered engine identifiers. EngineAdaptive is the composite policy
// engine that switches between concrete engines online; the IDs index the
// runtime's fixed-size [NumEngines] engine array.
const (
	EngineNOrec EngineID = iota
	EngineSNOrec
	EngineTL2
	EngineSTL2
	EngineSGL
	EngineHTM
	EngineSHTM
	EngineAdaptive
	// EngineHyTM is the progressive hybrid engine (DESIGN.md §13): an
	// uninstrumented hardware fast path, an instrumented hardware middle
	// path, and a software slow path, with typed-abort-driven demotion.
	EngineHyTM
	// EngineHyTMMid is the same engine with the fast path forced off — every
	// hardware attempt starts on the instrumented middle path. It is the
	// instrumentation-cost ablation cell the EXPERIMENTS.md table compares
	// EngineHyTM against.
	EngineHyTMMid
	// NumEngines bounds the enum; arrays indexed by EngineID use it.
	NumEngines
)

// TxConfig carries the per-descriptor tuning knobs from a runtime to an
// engine's descriptor constructor. Engines apply the fields they understand
// and ignore the rest, so one config type serves every registered engine.
// Callers fill every field they care about: values are applied literally
// (a zero HTMSpurious disables spurious aborts, it does not mean "default").
type TxConfig struct {
	// DedupReads enables read-after-read de-duplication (NOrec family).
	DedupReads bool
	// NoExtend disables S-TL2's phase-1 snapshot extension (TL2 family).
	NoExtend bool
	// HTMCapacity, HTMRetries, HTMSpurious tune the simulated hardware
	// (HTM family). An HTMCapacity <= 0 fits no location: every hardware
	// attempt that touches one fails with a capacity abort.
	HTMCapacity int
	HTMRetries  int
	HTMSpurious float64
	// NoIrrevocable disables an engine's in-engine irrevocable fallback
	// (HTM family). Sharded runtimes set it: an irrevocable attempt writes
	// in place, which cannot roll back when another shard's Prepare aborts
	// a cross-shard commit, so under sharding the hybrid engines retry on
	// their software slow path and progress comes from the runtime-level
	// escalation gate instead.
	NoIrrevocable bool
	// Seed decorrelates descriptor-local RNG streams (HTM family).
	Seed int64
}

// Engine is one instantiated STM engine: the algorithm's shared global
// metadata (sequence lock, version clock, orec table) behind a uniform
// constructor-and-health interface. A Runtime owns one Engine per concrete
// algorithm it runs; independent Engine instances do not synchronize with
// each other.
type Engine interface {
	// NewTx returns a fresh transaction descriptor bound to this engine
	// instance, configured from cfg.
	NewTx(cfg TxConfig) TxImpl
	// Quiescent verifies, at a point where no transaction is in flight,
	// that the engine's global metadata holds no leaked resources.
	Quiescent() error
}

// EngineDesc describes one registered engine: its identity, its capability
// flags, and its constructor. The flags replace the per-algorithm switch
// statements the facade used to carry — consumers ask the descriptor instead
// of enumerating algorithms.
type EngineDesc struct {
	// ID is the engine's registry key (and its stm.Algorithm value).
	ID EngineID
	// Name is the conventional display name ("S-NOrec", "TL2", ...).
	Name string
	// DisplayOrder sorts engines in report tables (paper order: baseline
	// before its semantic extension, software families before hardware).
	DisplayOrder int
	// Semantic reports whether the engine executes the semantic primitives
	// natively (true) or delegates them to classical barriers (false). The
	// facade does the delegating (Baseline) for revocable engines; an
	// Irrevocable one evaluates the primitives in place either way.
	Semantic bool
	// ComposedFacts reports whether CmpSum/CmpAny are recorded as single
	// composed facts (clause flips that preserve the outcome do not abort).
	ComposedFacts bool
	// Irrevocable reports whether the engine serializes transactions so a
	// running transaction can never abort (SGL-style).
	Irrevocable bool
	// HTMBacked reports whether the engine runs on the simulated best-effort
	// hardware path.
	HTMBacked bool
	// ProgressiveHTM reports whether the engine implements the three-path
	// progressive HyTM structure (uninstrumented fast path, instrumented
	// middle path, software slow path) with typed-abort demotion — the
	// capability the adaptive policy's capacity-escalation rule and the
	// hybrid benchmark grid key on.
	ProgressiveHTM bool
	// TwoPhase reports whether the engine's descriptors implement the
	// core.TwoPhase decomposed commit, the capability a sharded runtime
	// needs to commit transactions that span engine instances. Engines
	// without it can still be sharded when they are Irrevocable (a single
	// serializing instance backs every shard).
	TwoPhase bool
	// Composite marks a policy engine that runs by delegating to other
	// registered engines (Adaptive). Composite descriptors have no
	// constructor of their own: New is nil and the facade provides the
	// composition.
	Composite bool
	// New constructs a fresh engine instance (nil iff Composite).
	New func() Engine
}

// engineRegistry holds the registered descriptors. Registration happens in
// package init functions (each backend package registers its engines), but
// the mutex keeps the registry safe for late or test-time registration too.
var engineRegistry struct {
	mu    sync.Mutex
	byID  map[EngineID]EngineDesc
	names map[string]EngineID
}

// RegisterEngine adds an engine descriptor to the registry. It panics on an
// out-of-range ID, a duplicate ID or name, or a descriptor whose constructor
// disagrees with its Composite flag — registration bugs are programmer
// errors that must fail loudly at init time, not surface as missing table
// rows later.
func RegisterEngine(d EngineDesc) {
	if d.ID < 0 || d.ID >= NumEngines {
		panic(fmt.Sprintf("core: engine id %d out of range", int(d.ID)))
	}
	if d.Name == "" {
		panic(fmt.Sprintf("core: engine %d registered without a name", int(d.ID)))
	}
	if d.Composite != (d.New == nil) {
		panic(fmt.Sprintf("core: engine %q: exactly the composite engines have no constructor", d.Name))
	}
	engineRegistry.mu.Lock()
	defer engineRegistry.mu.Unlock()
	if engineRegistry.byID == nil {
		engineRegistry.byID = make(map[EngineID]EngineDesc, NumEngines)
		engineRegistry.names = make(map[string]EngineID, NumEngines)
	}
	if prev, dup := engineRegistry.byID[d.ID]; dup {
		panic(fmt.Sprintf("core: engine id %d registered twice (%q, %q)", int(d.ID), prev.Name, d.Name))
	}
	if prev, dup := engineRegistry.names[d.Name]; dup {
		panic(fmt.Sprintf("core: engine name %q registered twice (ids %d, %d)", d.Name, int(prev), int(d.ID)))
	}
	engineRegistry.byID[d.ID] = d
	engineRegistry.names[d.Name] = d.ID
}

// EngineFor returns the descriptor registered under id.
func EngineFor(id EngineID) (EngineDesc, bool) {
	engineRegistry.mu.Lock()
	defer engineRegistry.mu.Unlock()
	d, ok := engineRegistry.byID[id]
	return d, ok
}

// Engines lists every registered engine descriptor in display order.
func Engines() []EngineDesc {
	engineRegistry.mu.Lock()
	out := make([]EngineDesc, 0, len(engineRegistry.byID))
	for _, d := range engineRegistry.byID {
		out = append(out, d)
	}
	engineRegistry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DisplayOrder < out[j].DisplayOrder })
	return out
}

// String returns the registered name of the engine, or a default marker for
// unregistered values (the registry-exhaustiveness test asserts no selectable
// engine ever prints the default form).
func (id EngineID) String() string {
	if d, ok := EngineFor(id); ok {
		return d.Name
	}
	return fmt.Sprintf("Algorithm(%d)", int(id))
}

// Semantic reports whether the engine executes the semantic primitives
// natively (composite engines report true when their candidate set does).
func (id EngineID) Semantic() bool {
	d, ok := EngineFor(id)
	return ok && d.Semantic
}
