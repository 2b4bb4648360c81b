// Package experiments defines one runnable reproduction per table and figure
// of the paper's evaluation (Section 7). Both cmd/semstm-bench and the
// repository's testing.B benchmarks drive experiments through this registry,
// so the CLI output and the bench output come from the same code. The
// acceptance gates scripts/check.sh runs live beside it (Gates, gates.go).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/internal/stamp"
	"semstm/internal/txprogs"
	"semstm/internal/txvm"
	"semstm/stm"
)

// Config scales an experiment run. Zero fields take experiment defaults.
type Config struct {
	// Threads overrides the thread sweep.
	Threads []int
	// Duration is the per-cell measurement window for throughput panels.
	Duration time.Duration
	// TotalOps is the fixed work for execution-time (STAMP) panels.
	TotalOps int
	// YieldEvery tunes the interleave simulation (Runtime.SetYieldEvery):
	// 0 takes the default, negative disables it.
	YieldEvery int
	// GOMAXPROCS is the per-cell scheduler-width policy (harness.ApplyProcs):
	// 0 matches each cell's thread count, > 0 pins a width, < 0 keeps the
	// process setting.
	GOMAXPROCS int
	// Reps is how many times a gate measures each arm, keeping the best rep
	// (Gate.Measure fills it from the gate table); experiments ignore it.
	Reps int
}

func (c Config) threads(def []int) []int {
	if len(c.Threads) > 0 {
		return c.Threads
	}
	return def
}

func (c Config) duration() time.Duration {
	if c.Duration > 0 {
		return c.Duration
	}
	return 300 * time.Millisecond
}

func (c Config) totalOps(def int) int {
	if c.TotalOps > 0 {
		return c.TotalOps
	}
	return def
}

// yieldEvery resolves the interleave-simulation setting: low-core machines
// need mid-transaction yields for the conflict dynamics of a multicore to
// appear (see DESIGN.md).
func (c Config) yieldEvery() int {
	switch {
	case c.YieldEvery < 0:
		return 0
	case c.YieldEvery == 0:
		return 4
	default:
		return c.YieldEvery
	}
}

// microThreads follows Figure 1's micro-benchmark sweep (the paper uses
// 2..24 on 24 cores; adjust with -threads on smaller machines).
var microThreads = []int{2, 4, 8, 12, 16, 20, 24}

// stampThreads follows the STAMP panels (the paper shows up to 12).
var stampThreads = []int{2, 4, 8, 12}

// rstmAlgos are the four algorithms of Figure 1.
var rstmAlgos = []stm.Algorithm{stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI name (e.g. "fig1a").
	ID string
	// Panels names the paper panels the experiment regenerates.
	Panels string
	// Title describes the workload.
	Title string
	// Run executes the experiment and returns its formatted report.
	Run func(cfg Config) (string, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig1a", Panels: "Figure 1a/1b", Title: "Hashtable (open addressing) — throughput and aborts", Run: runHashtable},
		{ID: "fig1c", Panels: "Figure 1c/1d", Title: "Bank — throughput and aborts", Run: runBank},
		{ID: "fig1e", Panels: "Figure 1e/1f", Title: "LRU Cache — throughput and aborts", Run: runLRU},
		{ID: "fig1g", Panels: "Figure 1g/1h", Title: "Kmeans — execution time and aborts", Run: runKmeans},
		{ID: "fig1i", Panels: "Figure 1i/1j", Title: "Vacation — execution time and aborts", Run: runVacation},
		{ID: "fig1k", Panels: "Figure 1k/1l", Title: "Labyrinth (original) — execution time and aborts", Run: runLabyrinth1},
		{ID: "fig1m", Panels: "Figure 1m/1n", Title: "Labyrinth (TRANSACT'14-optimized) — execution time and aborts", Run: runLabyrinth2},
		{ID: "fig1o", Panels: "Figure 1o/1p", Title: "Yada — execution time and aborts", Run: runYada},
		{ID: "fig2a", Panels: "Figure 2a/2b", Title: "Hashtable via GCC (TxC-compiled) — throughput and aborts", Run: runGCCHashtable},
		{ID: "fig2c", Panels: "Figure 2c/2d", Title: "Vacation via GCC (TxC-compiled) — execution time and aborts", Run: runGCCVacation},
		{ID: "table3", Panels: "Table 3", Title: "Average operations per transaction, base vs semantic", Run: runTable3},
		{ID: "ext-htm", Panels: "extension", Title: "HTM vs S-HTM (simulated best-effort hardware, the paper's future work)", Run: runExtHTM},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}

func timedReport(title string, build harness.Builder, cfg Config, threads []int) (string, error) {
	s, err := harness.Sweep(title, build, harness.SweepConfig{
		Algorithms: rstmAlgos,
		Threads:    cfg.threads(threads),
		Timed:      true,
		Duration:   cfg.duration(),
		YieldEvery: cfg.yieldEvery(),
		GOMAXPROCS: cfg.GOMAXPROCS,
	})
	if err != nil {
		return "", err
	}
	return s.FormatThroughput() + "\n" + s.FormatAborts(), nil
}

func fixedReport(title string, build harness.Builder, cfg Config, threads []int, defOps int) (string, error) {
	s, err := harness.Sweep(title, build, harness.SweepConfig{
		Algorithms: rstmAlgos,
		Threads:    cfg.threads(threads),
		Timed:      false,
		TotalOps:   cfg.totalOps(defOps),
		YieldEvery: cfg.yieldEvery(),
		GOMAXPROCS: cfg.GOMAXPROCS,
	})
	if err != nil {
		return "", err
	}
	return s.FormatTime() + "\n" + s.FormatAborts(), nil
}

func runHashtable(cfg Config) (string, error) {
	return timedReport("Figure 1a/1b — Hashtable", func(rt *stm.Runtime) harness.Workload {
		return apps.NewHashtable(rt, 2048)
	}, cfg, microThreads)
}

func runBank(cfg Config) (string, error) {
	return timedReport("Figure 1c/1d — Bank", func(rt *stm.Runtime) harness.Workload {
		return apps.NewBank(rt, 1024, 1000)
	}, cfg, microThreads)
}

func runLRU(cfg Config) (string, error) {
	return timedReport("Figure 1e/1f — LRU Cache", func(rt *stm.Runtime) harness.Workload {
		return apps.NewLRUCache(rt, 64, 8)
	}, cfg, microThreads)
}

func runKmeans(cfg Config) (string, error) {
	return fixedReport("Figure 1g/1h — Kmeans", func(rt *stm.Runtime) harness.Workload {
		return stamp.NewKmeans(rt, 16, 8)
	}, cfg, stampThreads, 12000)
}

func runVacation(cfg Config) (string, error) {
	return fixedReport("Figure 1i/1j — Vacation", func(rt *stm.Runtime) harness.Workload {
		return stamp.NewVacation(rt, 512)
	}, cfg, stampThreads, 4000)
}

func runLabyrinth1(cfg Config) (string, error) {
	return fixedReport("Figure 1k/1l — Labyrinth (original)", func(rt *stm.Runtime) harness.Workload {
		return stamp.NewLabyrinth(rt, 16, 16, 2, false)
	}, cfg, stampThreads, 500)
}

func runLabyrinth2(cfg Config) (string, error) {
	return fixedReport("Figure 1m/1n — Labyrinth (optimized)", func(rt *stm.Runtime) harness.Workload {
		return stamp.NewLabyrinth(rt, 16, 16, 2, true)
	}, cfg, stampThreads, 1500)
}

func runYada(cfg Config) (string, error) {
	ops := cfg.totalOps(1500)
	return fixedReport("Figure 1o/1p — Yada", func(rt *stm.Runtime) harness.Workload {
		// Pool sizing: initial elements + CavityFan per refinement step
		// (4 steps per op) with generous slack for aborted allocations.
		return stamp.NewYada(rt, 120, 120+ops*4*2*4)
	}, cfg, stampThreads, ops)
}

// vmWorkload adapts a compiled TxC entry point to the harness: each worker
// goroutine borrows a VM thread from the pool.
type vmWorkload struct {
	vm    *txvm.VM
	entry string
	args  func(rng *rand.Rand) []int64
	pool  sync.Pool
	check func(vm *txvm.VM) error
	fail  atomic.Pointer[string]
}

func newVMWorkload(vm *txvm.VM, entry string, args func(*rand.Rand) []int64, check func(*txvm.VM) error) *vmWorkload {
	w := &vmWorkload{vm: vm, entry: entry, args: args, check: check}
	var seed atomic.Int64
	w.pool.New = func() any { return vm.NewThread(seed.Add(1)) }
	return w
}

func (w *vmWorkload) Op(rng *rand.Rand) {
	th := w.pool.Get().(*txvm.Thread)
	defer w.pool.Put(th)
	var args []int64
	if w.args != nil {
		args = w.args(rng)
	}
	if _, err := th.Call(w.entry, args...); err != nil {
		msg := err.Error()
		w.fail.Store(&msg)
	}
}

func (w *vmWorkload) Check() error {
	if msg := w.fail.Load(); msg != nil {
		return fmt.Errorf("txvm: %s", *msg)
	}
	if w.check != nil {
		return w.check(w.vm)
	}
	return nil
}

// gccSweep runs one TxC program under the three Figure 2 configurations.
func gccSweep(title, src, entry string, args func(*rand.Rand) []int64,
	setup func(vm *txvm.VM) error, check func(*txvm.VM) error,
	cfg Config, threads []int, timed bool, defOps int) (*harness.Series, error) {

	s := &harness.Series{Title: title, Threads: cfg.threads(threads)}
	for _, mode := range txprogs.Modes() {
		for _, th := range s.Threads {
			vm, _, err := txprogs.Build(src, mode)
			if err != nil {
				return nil, err
			}
			vm.Runtime().SetYieldEvery(cfg.yieldEvery())
			if setup != nil {
				if err := setup(vm); err != nil {
					return nil, err
				}
			}
			w := newVMWorkload(vm, entry, args, check)
			var res harness.Result
			if timed {
				res, err = harness.RunTimed(vm.Runtime(), w, th, cfg.duration())
			} else {
				res, err = harness.RunFixed(vm.Runtime(), w, th, cfg.totalOps(defOps))
			}
			if err != nil {
				return nil, fmt.Errorf("%s [%v x%d]: %w", title, mode, th, err)
			}
			s.AddCell(mode.String(), th, res)
		}
	}
	return s, nil
}

func runGCCHashtable(cfg Config) (string, error) {
	s, err := gccSweep("Figure 2a/2b — Hashtable via GCC", txprogs.HashtableSrc,
		"txn10", nil, PrefillGCCHashtable, nil, cfg, microThreads, true, 0)
	if err != nil {
		return "", err
	}
	return s.FormatThroughput() + "\n" + s.FormatAborts(), nil
}

// PrefillGCCHashtable seeds the compiled hashtable at ~50% load (keys land
// on their home slots) so probes immediately exercise occupied chains.
func PrefillGCCHashtable(vm *txvm.VM) error {
	for k := int64(1); k <= 512; k++ {
		if err := vm.SetShared("states", k, 1); err != nil {
			return err
		}
		if err := vm.SetShared("set", k, k); err != nil {
			return err
		}
	}
	return nil
}

func runGCCVacation(cfg Config) (string, error) {
	setup := func(vm *txvm.VM) error {
		for i := int64(0); i < 256; i++ {
			if err := vm.SetShared("numfree", i, 1_000_000); err != nil {
				return err
			}
			if err := vm.SetShared("price", i, 100+i); err != nil {
				return err
			}
		}
		return nil
	}
	s, err := gccSweep("Figure 2c/2d — Vacation via GCC", txprogs.VacationSrc,
		"client", func(rng *rand.Rand) []int64 { return []int64{rng.Int63n(100)} },
		setup, nil, cfg, microThreads, false, 10000)
	if err != nil {
		return "", err
	}
	return s.FormatTime() + "\n" + s.FormatAborts(), nil
}

// runExtHTM contrasts the simulated best-effort hardware TM with its
// semantic extension on the increment-heavy Kmeans kernel, where deferred
// increments halve the tracked footprint and with it the capacity aborts.
func runExtHTM(cfg Config) (string, error) {
	s := &harness.Series{Title: "Extension — Kmeans on hybrid HTM (capacity 24)", Threads: cfg.threads([]int{2, 4, 8})}
	var notes strings.Builder
	for _, a := range []stm.Algorithm{stm.HTM, stm.SHTM} {
		for _, th := range s.Threads {
			rt := stm.New(a)
			rt.ConfigureHTM(24, 4, 0.5)
			rt.SetYieldEvery(cfg.yieldEvery())
			w := stamp.NewKmeans(rt, 16, 8)
			res, err := harness.RunFixed(rt, w, th, cfg.totalOps(6000))
			if err != nil {
				return "", err
			}
			s.AddCell(a.String(), th, res)
			fb, hw := rt.HTMStats()
			fmt.Fprintf(&notes, "%-8s x%-2d  fallbacks=%-6d hw-aborts=%d\n", a, th, fb, hw)
		}
	}
	return s.FormatTime() + "\n" + s.FormatAborts() + "\n" + notes.String(), nil
}

// table3Workloads lists the benchmarks of Table 3 in paper order.
func table3Workloads() []struct {
	name  string
	build harness.Builder
	ops   int
} {
	return []struct {
		name  string
		build harness.Builder
		ops   int
	}{
		{"Hashtable", func(rt *stm.Runtime) harness.Workload { return apps.NewHashtable(rt, 2048) }, 400},
		{"Bank", func(rt *stm.Runtime) harness.Workload { return apps.NewBank(rt, 1024, 1000) }, 400},
		{"LRU", func(rt *stm.Runtime) harness.Workload { return apps.NewLRUCache(rt, 64, 8) }, 400},
		{"Vacation", func(rt *stm.Runtime) harness.Workload { return stamp.NewVacation(rt, 512) }, 400},
		{"Kmeans", func(rt *stm.Runtime) harness.Workload { return stamp.NewKmeans(rt, 16, 8) }, 200},
		{"Labyrinth", func(rt *stm.Runtime) harness.Workload { return stamp.NewLabyrinth(rt, 16, 16, 2, false) }, 40},
		{"Yada", func(rt *stm.Runtime) harness.Workload { return stamp.NewYada(rt, 120, 40000) }, 300},
		{"SSCA2", func(rt *stm.Runtime) harness.Workload { return stamp.NewSSCA2(rt, 512, 64) }, 400},
		{"Genome", func(rt *stm.Runtime) harness.Workload { return stamp.NewGenome(rt, 6400, 800) }, 400},
		{"Intruder", func(rt *stm.Runtime) harness.Workload { return stamp.NewIntruder(rt, 500) }, 400},
	}
}

func runTable3(cfg Config) (string, error) {
	var rows []harness.OpRow
	for _, wl := range table3Workloads() {
		row := harness.OpRow{Benchmark: wl.name}
		for _, semantic := range []bool{false, true} {
			algo := stm.NOrec
			if semantic {
				algo = stm.SNOrec
			}
			rt := stm.New(algo)
			rt.SetYieldEvery(cfg.yieldEvery())
			w := wl.build(rt)
			// Two threads: enough concurrency to exercise the promote
			// paths without inflating counts with aborted work. RunFixed
			// scopes the counters to the run, excluding setup.
			res, err := harness.RunFixed(rt, w, 2, cfg.totalOps(wl.ops))
			if err != nil {
				return "", fmt.Errorf("table3 %s: %w", wl.name, err)
			}
			if semantic {
				row.Semantic = res.OpsPerCommit()
			} else {
				row.Base = res.OpsPerCommit()
			}
		}
		rows = append(rows, row)
	}
	var b strings.Builder
	b.WriteString(harness.FormatTable3(rows))
	b.WriteString("\nNote: counts are per committed transaction and include work done by aborted attempts.\n")
	return b.String(), nil
}
