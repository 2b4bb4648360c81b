// Command bench is the repository's fixed measuring instrument: five
// workloads over the layers core → norec/tl2 → stm → shard → wal → server →
// tcp, an untraced run for the end-to-end metrics and a traced run that
// peels the stack layer by layer. See README.md in this directory.
//
// The driver's contract (BENCHMARK.json at the repository root):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output. Without
// --workload the whole suite runs (every workload, both trace modes);
// -selfcheck K repeats the suite to measure the run-to-run spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	clients   int
	validate  bool
	selfcheck int
	outPath   string
	spanPath  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: the whole suite)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.IntVar(&o.clients, "clients", 0, "client count and GOMAXPROCS (default min(nproc, 4))")
	flag.BoolVar(&o.validate, "validate-only", false, "check BENCHMARK.json against the program and exit")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run the suite on K seeds and report every metric's spread against its bound")
	flag.StringVar(&o.outPath, "out", "", "suite mode: write the JSON report here")
	flag.StringVar(&o.spanPath, "spans", "", "traced run: write the recorded spans here (suite mode: to FILE.<workload>.json)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	specPath, err := findSpec()
	if err != nil {
		return err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if err := sp.validate(); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	if o.validate {
		fmt.Printf("%s: %d workloads, %d end-to-end and %d per-layer metrics, all matching the program\n",
			specPath, len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer))
		return nil
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.clients <= 0 {
		o.clients = min(runtime.NumCPU(), 4)
	}
	runtime.GOMAXPROCS(o.clients)
	root, err := filepath.Abs(filepath.Dir(specPath))
	if err != nil {
		return err
	}
	e := env{seed: o.seed, clients: o.clients, tmpRoot: filepath.Join(root, ".bench_build", "tmp")}

	if o.workload == "" {
		return runSuite(e, sp, o.seconds, max(o.selfcheck, 1), o.outPath, o.spanPath)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, spans, err := runOne(w, e, o.seconds, o.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.spanPath != "" {
		if err := writeJSON(o.spanPath, spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or returned wrong results", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// runOne runs one workload in one trace mode, prints every metric by name
// with its unit, and checks that exactly the declared metrics came out.
func runOne(w *workload, e env, seconds float64, trace int) (res result, spans []span, err error) {
	defs := endToEnd
	if trace == 0 {
		res, err = w.runEndToEnd(e, seconds)
	} else {
		defs = perLayer
		res, spans, err = w.runTraced(e, seconds)
	}
	if err != nil {
		return res, nil, err
	}
	if len(res.Metrics) != len(defs) {
		return res, nil, fmt.Errorf("emitted %d metrics, declared %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return res, nil, fmt.Errorf("metric %s was not emitted", d.name)
		}
		fmt.Printf("  %-34s %16.4f %s\n", d.name, m.Value, m.Unit)
	}
	return res, spans, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
