package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricDef is one metric the program emits. The lists below are the
// program's side of the contract; BENCHMARK.json is the declared side, and
// validate holds the two together.
type metricDef struct {
	name, unit, better string
}

// endToEnd is emitted by every workload's untraced run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p95_us", "us", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer is emitted by every workload's traced run (-trace 1).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"core.writeset_put_ns", "ns", "lower"},
		{"core.writeset_get_ns", "ns", "lower"},
		{"core.semset_append_ns", "ns", "lower"},
	}
	for _, eng := range []string{"norec", "tl2"} {
		for _, m := range []string{"read_ns", "cmp_ns", "inc_ns", "write_ns", "commit_ro_ns", "commit_rw_ns"} {
			defs = append(defs, metricDef{eng + "." + m, "ns", "lower"})
		}
		for _, m := range []string{"aborts", "validations", "val_entries", "reads", "compares", "incs", "promotes"} {
			defs = append(defs, metricDef{eng + "." + m + "_per_commit", "count", "lower"})
		}
		defs = append(defs, metricDef{eng + ".semantic_speedup", "ratio", "higher"})
	}
	return append(defs,
		metricDef{"tl2.clock_adopts_per_commit", "count", "lower"},

		metricDef{"stm.atomically_empty_ns", "ns", "lower"},
		metricDef{"stm.allocs_per_tx", "count", "lower"},
		metricDef{"stm.alloc_bytes_per_op", "B", "lower"},
		metricDef{"stm.spin_waits_per_commit", "count", "lower"},

		metricDef{"shard.single_self_ns", "ns", "lower"},
		metricDef{"shard.cross_commit_ns", "ns", "lower"},
		metricDef{"shard.cross_share", "ratio", "lower"},
		metricDef{"shard.cross_revals_per_commit", "count", "lower"},

		metricDef{"wal.self_ns_per_op", "ns", "lower"},
		metricDef{"wal.append_ns", "ns", "lower"},
		metricDef{"wal.append_always_us", "us", "lower"},
		metricDef{"wal.bytes_per_frame", "B", "lower"},
		metricDef{"wal.bytes_per_op", "B", "lower"},
		metricDef{"wal.fsyncs_per_op", "count", "lower"},
		metricDef{"wal.group_size", "count", "higher"},
		metricDef{"wal.recover_ns_per_frame", "ns", "lower"},
		metricDef{"wal.unattributed_ns", "ns", "lower"},

		metricDef{"server.self_ns_per_op", "ns", "lower"},
		metricDef{"server.handoff_ns", "ns", "lower"},
		metricDef{"server.mean_window", "count", "higher"},
		metricDef{"server.merged_inc_ratio", "ratio", "higher"},
		metricDef{"server.solo_fallback_share", "ratio", "lower"},
		metricDef{"server.engine_commits_per_req", "count", "lower"},

		metricDef{"tcp.self_us_per_op", "us", "lower"},
		metricDef{"tcp.codec_ns", "ns", "lower"},
		metricDef{"tcp.bytes_per_req", "B", "lower"},
		metricDef{"tcp.roundtrip_us", "us", "lower"},
		metricDef{"tcp.lat_p50_us_r5k", "us", "lower"},
		metricDef{"tcp.lat_p99_us_r5k", "us", "lower"},
		metricDef{"tcp.lat_p50_us_r20k", "us", "lower"},
		metricDef{"tcp.lat_p99_us_r20k", "us", "lower"},
		metricDef{"tcp.gen_lag_p99_us", "us", "lower"},
		metricDef{"tcp.max_rate_ok_rps", "1/s", "higher"},
		metricDef{"tcp.unattributed_ns", "ns", "lower"},

		metricDef{"trace.overhead_pct", "%", "lower"},
		metricDef{"trace.lat_p99_us", "us", "lower"},
		metricDef{"trace.lat_p999_us", "us", "lower"},
	)
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// findSpec locates BENCHMARK.json: the working directory when started from
// the repository root, its parent when started inside bench/.
func findSpec() (string, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(want) {
		return nil, fmt.Errorf("%s: %d top-level keys, want exactly %v", path, len(top), want)
	}
	for _, k := range want {
		if _, ok := top[k]; !ok {
			return nil, fmt.Errorf("%s: missing key %q", path, k)
		}
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the declared side against the contract's limits and
// against what the program emits, in both directions.
func (s *spec) validate() error {
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
		if findWorkload(w.Name) == nil {
			return fmt.Errorf("workload %q is declared but the program does not implement it", w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads declared, the program implements %d", len(s.Workloads), len(workloads))
	}
	check := func(kind string, declared []specMetric, emitted []metricDef, bounded bool) error {
		byName := map[string]metricDef{}
		for _, d := range emitted {
			byName[d.name] = d
		}
		for _, m := range declared {
			if err := unique(m.Name); err != nil {
				return err
			}
			d, ok := byName[m.Name]
			if !ok {
				return fmt.Errorf("%s metric %q is declared but never emitted", kind, m.Name)
			}
			delete(byName, m.Name)
			if !unitRE.MatchString(m.Unit) || m.Unit != d.unit || m.Better != d.better {
				return fmt.Errorf("%s metric %q: declared %s/%s, emitted %s/%s", kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				return fmt.Errorf("%s metric %q: bound must be in (0, 0.25]", kind, m.Name)
			case !bounded && m.Bound != nil:
				return fmt.Errorf("%s metric %q: per-layer metrics carry no bound", kind, m.Name)
			}
		}
		for name := range byName {
			return fmt.Errorf("%s metric %q is emitted but not declared", kind, name)
		}
		return nil
	}
	if err := check("end-to-end", s.EndToEnd, endToEnd, true); err != nil {
		return err
	}
	if !seen["setup_s"] {
		return fmt.Errorf("end-to-end metric setup_s is required")
	}
	return check("per-layer", s.PerLayer, perLayer, false)
}
