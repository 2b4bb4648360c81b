package stm

import (
	"strings"
	"testing"

	"semstm/internal/core"
)

// TestRegistryExhaustive pins the engine registry to the public Algorithm
// surface: every identifier below the core.NumEngines sentinel is registered,
// every registered engine is listed by Algorithms(), and the descriptor
// metadata (name, semantic flag, constructor) is self-consistent. A new
// backend that registers an engine but misses one of the pieces — or a new
// Algorithm constant without a registration — fails here rather than as a
// construction panic deep in a benchmark.
func TestRegistryExhaustive(t *testing.T) {
	algos := Algorithms()
	if len(algos) != int(core.NumEngines) {
		t.Fatalf("Algorithms() lists %d engines, registry sentinel says %d",
			len(algos), int(core.NumEngines))
	}
	listed := make(map[Algorithm]bool, len(algos))
	names := make(map[string]Algorithm, len(algos))
	for _, a := range algos {
		listed[a] = true
	}
	for id := Algorithm(0); id < core.NumEngines; id++ {
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
		if desc.New == nil {
			t.Errorf("%s: registered without a constructor", desc.Name)
		}
	}
	// Unregistered identifiers keep the diagnostic fallback name and are
	// rejected by New (TestNewUnknownAlgorithmPanics covers the panic).
	if s := Algorithm(core.NumEngines).String(); !strings.HasPrefix(s, "Algorithm(") {
		t.Errorf("out-of-range algorithm stringifies as %q", s)
	}
}

// TestRegistryCapabilityFlags pins the capability bits the facade, the
// harness and the sharded runtime rely on.
func TestRegistryCapabilityFlags(t *testing.T) {
	expect := map[Algorithm]struct {
		semantic, composed, irrevocable, twoPhase bool
	}{
		NOrec:   {false, false, false, true},
		SNOrec:  {true, true, false, true},
		TL2:     {false, false, false, true},
		STL2:    {true, false, false, true}, // per-clause facts, no composed representation
		SGL:     {false, false, true, false},
		HTM:     {false, false, false, false},
		SHTM:    {true, true, false, false},
		HyTM:    {true, true, false, true},
		HyTMMid: {true, true, false, true},
	}
	if len(expect) != len(Algorithms()) {
		t.Fatalf("expectation table covers %d engines, registry lists %d", len(expect), len(Algorithms()))
	}
	for id, w := range expect {
		desc, ok := core.EngineFor(id)
		if !ok {
			t.Fatalf("%v not registered", id)
		}
		got := struct{ semantic, composed, irrevocable, twoPhase bool }{
			desc.Semantic, desc.ComposedFacts, desc.Irrevocable, desc.TwoPhase,
		}
		if got != w {
			t.Errorf("%s: capability flags %+v, want %+v", desc.Name, got, w)
		}
	}
}
