package main

import (
	"testing"
)

// TestBenchmarkJSONMatchesProgram is -validate-only as a test: it parses the
// repository's BENCHMARK.json, checks names, units, limits and reasons, and
// that the program emits exactly the declared metrics and workloads. It runs
// no workload.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	path, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.validate(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestValidateRejects feeds validate the mistakes it exists to catch.
func TestValidateRejects(t *testing.T) {
	path, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	bound := 0.1
	for name, breakIt := range map[string]func(*spec){
		"undeclared metric": func(s *spec) { s.PerLayer = s.PerLayer[1:] },
		"never emitted metric": func(s *spec) {
			s.PerLayer = append(s.PerLayer, specMetric{Name: "tcp.nothing", Unit: "ns", Better: "lower"})
		},
		"bad name":         func(s *spec) { s.Workloads[0].Name = "lib hashtable" },
		"missing why":      func(s *spec) { s.Workloads[1].Why = "" },
		"unit mismatch":    func(s *spec) { s.EndToEnd[1].Unit = "ms" },
		"bound too wide":   func(s *spec) { b := 0.5; s.EndToEnd[0].Bound = &b },
		"bound on a layer": func(s *spec) { s.PerLayer[0].Bound = &bound },
		"duplicate name":   func(s *spec) { s.PerLayer[1].Name = s.PerLayer[0].Name },
		"too long a run":   func(s *spec) { s.RunSeconds = 61 },
		"no setup_s":       func(s *spec) { s.EndToEnd[0].Name = "startup_s" },
	} {
		sp, err := loadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		breakIt(sp)
		if sp.validate() == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}
