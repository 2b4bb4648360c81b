// Command semstm-bench regenerates the tables and figures of "Extending TM
// Primitives using Low Level Semantics" (SPAA 2016) on this machine, and runs
// the acceptance gates scripts/check.sh defends.
//
// Usage:
//
//	semstm-bench -list
//	semstm-bench -exp fig1a [-threads 2,4,8] [-dur 500ms]
//	semstm-bench -exp all   [-ops 4000]
//	semstm-bench -gate servegate
//
// Each experiment prints the same series the corresponding paper panel
// plots: throughput or execution time plus abort rates per algorithm per
// thread count, or the Table 3 operation profile. Each gate
// (internal/experiments/gates.go) measures its two arms at the shape and
// duration fixed in the gate table and prints the measured figures, the bar
// and ok/FAIL on one line, exiting 1 on FAIL. Parent-versus-change
// performance comparison is not this tool's job: that is bench/ (bash
// bench/run.sh, BENCHMARK.json).
//
// -cpuprofile and -memprofile write pprof profiles of whatever the invocation
// runs (see scripts/profile.sh), also when it fails.
//
// Every experiment cell runs under an explicit GOMAXPROCS (-gomaxprocs): by
// default the scheduler width follows each cell's thread count; a pinned
// width clamps larger thread counts with a warning instead of silently
// measuring oversubscription.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"semstm/internal/experiments"
)

func main() { os.Exit(run()) }

// run is main behind an exit code, so the deferred profile writers run on
// every way out.
func run() int {
	var (
		list       = flag.Bool("list", false, "list available experiments and gates and exit")
		expID      = flag.String("exp", "", "experiment id to run, or \"all\"")
		gateName   = flag.String("gate", "", "acceptance gate to run (see -list); exits 1 on FAIL")
		threads    = flag.String("threads", "", "comma-separated thread counts (default per experiment)")
		dur        = flag.Duration("dur", 0, "per-cell duration for throughput experiments and gates")
		ops        = flag.Int("ops", 0, "total operations for execution-time experiments")
		procs      = flag.Int("gomaxprocs", 0, "per-cell GOMAXPROCS: 0 matches each cell's thread count, > 0 pins a width (thread counts above it are clamped), < 0 keeps the process setting")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap (allocation) profile at exit to this file")
	)
	flag.Parse()

	var gate experiments.Gate
	if *gateName != "" {
		var err error
		if gate, err = experiments.FindGate(*gateName); err != nil {
			return gateUsage(err.Error())
		}
		if *expID != "" {
			return gateUsage("-gate and -exp are mutually exclusive")
		}
	}

	if *list || (*expID == "" && *gateName == "") {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %-14s %s\n", e.ID, e.Panels, e.Title)
		}
		fmt.Println("\nAcceptance gates (-gate NAME):")
		for _, g := range experiments.Gates() {
			fmt.Printf("  %-11s %s\n", g.Name, g.Bar)
		}
		if !*list {
			fmt.Println("\nrun with -exp <id>, -exp all or -gate <name>")
		}
		return 0
	}

	cfg := experiments.Config{Duration: *dur, TotalOps: *ops, GOMAXPROCS: *procs}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return errorf("bad -threads value %q", part)
			}
			// Under a pinned scheduler width, more workers than Ps measures
			// oversubscription, not the requested concurrency: clamp loudly
			// rather than publish a mislabeled cell.
			if *procs > 0 && n > *procs {
				fmt.Fprintf(os.Stderr,
					"semstm-bench: warning: clamping -threads %d to -gomaxprocs %d\n", n, *procs)
				n = *procs
			}
			if len(cfg.Threads) > 0 && cfg.Threads[len(cfg.Threads)-1] == n {
				continue // clamping may produce adjacent duplicates
			}
			cfg.Threads = append(cfg.Threads, n)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return errorf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return errorf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on the way out after a forcing GC, so the profile reflects
		// live retention plus the cumulative allocation sites of the run.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				errorf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				errorf("memprofile: %v", err)
			}
		}()
	}

	if *gateName != "" {
		start := time.Now()
		line, ok, err := gate.Measure(cfg)
		if err != nil {
			return errorf("%s: %v", gate.Name, err)
		}
		verdict := "ok"
		if !ok {
			verdict = "FAIL"
		}
		fmt.Printf("%s %s %s [%v]\n", gate.Name, line, verdict, time.Since(start).Round(time.Millisecond))
		if !ok {
			return 1
		}
		return 0
	}

	targets := experiments.All()
	if *expID != "all" {
		e, err := experiments.Find(*expID)
		if err != nil {
			return errorf("%v (use -list)", err)
		}
		targets = []experiments.Experiment{e}
	}
	for _, e := range targets {
		fmt.Printf("=== %s (%s): %s ===\n", e.ID, e.Panels, e.Title)
		start := time.Now()
		out, err := e.Run(cfg)
		if err != nil {
			return errorf("%s: %v", e.ID, err)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// errorf reports a failed run and returns its exit code.
func errorf(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "semstm-bench: "+format+"\n", args...)
	return 1
}

// gateUsage reports a bad -gate invocation with the valid names and returns
// its exit code.
func gateUsage(msg string) int {
	var names []string
	for _, g := range experiments.Gates() {
		names = append(names, g.Name)
	}
	fmt.Fprintf(os.Stderr, "semstm-bench: %s (gates: %s)\n", msg, strings.Join(names, ", "))
	return 2
}
