package stm

import (
	"strings"
	"testing"

	"semstm/internal/core"
)

// TestRegistryExhaustive pins the engine registry to the public Algorithm
// surface: every identifier below the numAlgorithms sentinel is registered,
// every registered engine is listed by Algorithms(), and the descriptor
// metadata (name, semantic flag, composite marker) is self-consistent. A new
// backend that registers an engine but misses one of the pieces — or a new
// Algorithm constant without a registration — fails here rather than as a
// construction panic deep in a benchmark.
func TestRegistryExhaustive(t *testing.T) {
	algos := Algorithms()
	if len(algos) != int(numAlgorithms) {
		t.Fatalf("Algorithms() lists %d engines, registry sentinel says %d",
			len(algos), int(numAlgorithms))
	}
	listed := make(map[Algorithm]bool, len(algos))
	names := make(map[string]Algorithm, len(algos))
	for _, a := range algos {
		listed[a] = true
	}
	composites := 0
	for id := Algorithm(0); id < numAlgorithms; id++ {
		desc, ok := core.EngineFor(id)
		if !ok {
			t.Errorf("algorithm %d has no registered engine", int(id))
			continue
		}
		if !listed[id] {
			t.Errorf("%s is registered but missing from Algorithms()", desc.Name)
		}
		if desc.ID != id {
			t.Errorf("%s: descriptor ID %d under key %d", desc.Name, int(desc.ID), int(id))
		}
		if strings.HasPrefix(id.String(), "Algorithm(") {
			t.Errorf("algorithm %d has the fallback String() %q", int(id), id.String())
		}
		if id.String() != desc.Name {
			t.Errorf("algorithm %d: String() %q != registered name %q",
				int(id), id.String(), desc.Name)
		}
		if prev, dup := names[desc.Name]; dup {
			t.Errorf("name %q registered by both %d and %d", desc.Name, int(prev), int(id))
		}
		names[desc.Name] = id
		if id.Semantic() != desc.Semantic {
			t.Errorf("%s: Semantic() %v != descriptor %v", desc.Name, id.Semantic(), desc.Semantic)
		}
		if desc.Composite != (desc.New == nil) {
			t.Errorf("%s: Composite=%v but New==nil is %v",
				desc.Name, desc.Composite, desc.New == nil)
		}
		if desc.Composite {
			composites++
		}
	}
	if composites != 1 {
		t.Errorf("registry holds %d composite engines, want exactly 1 (Adaptive)", composites)
	}
	// Unregistered identifiers keep the diagnostic fallback name and are
	// rejected by New (TestNewUnknownAlgorithmPanics covers the panic).
	if s := Algorithm(numAlgorithms).String(); !strings.HasPrefix(s, "Algorithm(") {
		t.Errorf("out-of-range algorithm stringifies as %q", s)
	}
}

// TestRegistryCapabilityFlags pins the capability bits the harness and the
// adaptive policy rely on.
func TestRegistryCapabilityFlags(t *testing.T) {
	expect := map[Algorithm]struct {
		semantic, composed, irrevocable, htm bool
	}{
		NOrec:    {false, false, false, false},
		SNOrec:   {true, true, false, false},
		TL2:      {false, false, false, false},
		STL2:     {true, false, false, false}, // per-clause facts, no composed representation
		SGL:      {false, false, true, false},
		HTM:      {false, false, false, true},
		SHTM:     {true, true, false, true},
		Adaptive: {true, false, false, false},
		HyTM:     {true, true, false, true},
		HyTMMid:  {true, true, false, true},
	}
	for _, id := range []Algorithm{HyTM, HyTMMid} {
		desc, ok := core.EngineFor(id)
		if !ok {
			t.Fatalf("%v not registered", id)
		}
		if !desc.ProgressiveHTM || !desc.TwoPhase {
			t.Errorf("%s: ProgressiveHTM=%v TwoPhase=%v, want both true",
				desc.Name, desc.ProgressiveHTM, desc.TwoPhase)
		}
	}
	for id, w := range expect {
		desc, ok := core.EngineFor(id)
		if !ok {
			t.Fatalf("%v not registered", id)
		}
		got := struct{ semantic, composed, irrevocable, htm bool }{
			desc.Semantic, desc.ComposedFacts, desc.Irrevocable, desc.HTMBacked,
		}
		if got != w {
			t.Errorf("%s: capability flags %+v, want %+v", desc.Name, got, w)
		}
	}
}
