// Package harness runs STM workloads across thread counts and algorithms and
// formats the resulting series the way the paper's evaluation section reports
// them: throughput and abort-rate panels for the micro-benchmarks, execution
// time and abort-rate panels for the STAMP applications, and the
// per-transaction operation-count table (Table 3).
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semstm/stm"
)

// Result captures one benchmark cell: one workload on one algorithm at one
// thread count.
type Result struct {
	Algorithm stm.Algorithm
	Threads   int
	Elapsed   time.Duration
	Ops       uint64       // application-level operations completed
	Stats     stm.Snapshot // runtime counters scoped to the run
}

// ApplyProcs installs the per-cell GOMAXPROCS policy and returns the restore
// function. procs > 0 pins that width; procs == 0 matches the cell's thread
// count, so every worker goroutine can hold a P and the runtime's
// housekeeping amortizes across them; procs < 0 leaves the process setting
// untouched.
func ApplyProcs(procs, threads int) func() {
	target := procs
	if target == 0 {
		target = threads
	}
	if target <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(target)
	return func() { runtime.GOMAXPROCS(prev) }
}

// ThroughputKTx returns committed transactions per second, in thousands —
// the y-axis of the micro-benchmark throughput panels.
func (r Result) ThroughputKTx() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Commits) / r.Elapsed.Seconds() / 1000
}

// AbortPct returns the abort rate percentage — the y-axis of the abort
// panels.
func (r Result) AbortPct() float64 { return r.Stats.AbortRate() }

// OpsPerCommit reports the average per-transaction operation profile, the
// rows of Table 3. Operations performed by aborted attempts are included in
// the numerator, matching runtime-collected statistics.
func (r Result) OpsPerCommit() OpProfile {
	c := float64(r.Stats.Commits)
	if c == 0 {
		return OpProfile{}
	}
	return OpProfile{
		Reads:    float64(r.Stats.Reads) / c,
		Writes:   float64(r.Stats.Writes) / c,
		Compares: float64(r.Stats.Compares) / c,
		Incs:     float64(r.Stats.Incs) / c,
		Promotes: float64(r.Stats.Promotes) / c,
	}
}

// OpProfile is one Table 3 column: average operations per transaction.
type OpProfile struct {
	Reads, Writes, Compares, Incs, Promotes float64
}

// Workload is a benchmark driver bound to a runtime: Op runs one
// application-level operation (one or more transactions) and Check verifies
// post-run invariants.
type Workload interface {
	Op(rng *rand.Rand)
	Check() error
}

// Builder constructs a fresh workload instance over a fresh runtime; every
// benchmark cell gets isolated state.
type Builder func(rt *stm.Runtime) Workload

// RunTimed drives the workload with the given number of threads for roughly
// the given duration and returns the measured cell.
func RunTimed(rt *stm.Runtime, w Workload, threads int, dur time.Duration) (Result, error) {
	before := rt.Stats()
	var stop atomic.Bool
	var ops atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			local := uint64(0)
			for !stop.Load() {
				w.Op(rng)
				local++
			}
			ops.Add(local)
		}(int64(t) + 1)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	res := Result{
		Algorithm: rt.Algorithm(),
		Threads:   threads,
		Elapsed:   elapsed,
		Ops:       ops.Load(),
		Stats:     rt.Stats().Sub(before),
	}
	return res, w.Check()
}

// RunFixed drives totalOps operations split across the threads and returns
// the measured cell; Elapsed is the execution-time metric of the STAMP
// panels.
func RunFixed(rt *stm.Runtime, w Workload, threads, totalOps int) (Result, error) {
	before := rt.Stats()
	var wg sync.WaitGroup
	per := totalOps / threads
	start := time.Now()
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = totalOps - per*(threads-1)
		}
		wg.Add(1)
		go func(seed int64, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				w.Op(rng)
			}
		}(int64(t)+1, n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := Result{
		Algorithm: rt.Algorithm(),
		Threads:   threads,
		Elapsed:   elapsed,
		Ops:       uint64(totalOps),
		Stats:     rt.Stats().Sub(before),
	}
	return res, w.Check()
}

// Series is a full panel: one row per thread count, one column per algorithm
// (or compiler mode, for the GCC panels).
type Series struct {
	Title   string
	Columns []string
	Threads []int
	Cells   map[string]map[int]Result
}

// AddCell records a measured cell under the named column, creating the
// column on first use.
func (s *Series) AddCell(column string, threads int, r Result) {
	if s.Cells == nil {
		s.Cells = make(map[string]map[int]Result)
	}
	if _, ok := s.Cells[column]; !ok {
		s.Cells[column] = make(map[int]Result)
		s.Columns = append(s.Columns, column)
	}
	s.Cells[column][threads] = r
}

// SweepConfig selects how a panel is produced.
type SweepConfig struct {
	// Algorithms selects the panel columns; empty means every registered
	// engine, in registry display order.
	Algorithms []stm.Algorithm
	Threads    []int
	// Timed selects duration-based throughput runs; otherwise fixed-ops
	// execution-time runs.
	Timed    bool
	Duration time.Duration // per cell, when Timed
	TotalOps int           // per cell, when !Timed
	// YieldEvery is passed to Runtime.SetYieldEvery on every cell's runtime
	// (interleave simulation for low-core machines; 0 disables).
	YieldEvery int
	// GOMAXPROCS is the per-cell scheduler-width policy (see ApplyProcs):
	// 0 matches each cell's thread count, > 0 pins a width, < 0 leaves the
	// process setting alone.
	GOMAXPROCS int
	// NewRuntime builds each cell's runtime; nil means stm.New. The sharded
	// panels pass stm.NewShardedRuntime closures here, so the rest of the
	// sweep machinery stays shard-agnostic.
	NewRuntime func(stm.Algorithm) *stm.Runtime
}

// Sweep measures a whole panel. Each cell is built from scratch so the cells
// are independent.
func Sweep(title string, build Builder, cfg SweepConfig) (*Series, error) {
	s := &Series{Title: title, Threads: cfg.Threads}
	algos := cfg.Algorithms
	if len(algos) == 0 {
		algos = stm.Algorithms()
	}
	newRuntime := cfg.NewRuntime
	if newRuntime == nil {
		newRuntime = stm.New
	}
	for _, a := range algos {
		for _, th := range cfg.Threads {
			rt := newRuntime(a)
			rt.SetYieldEvery(cfg.YieldEvery)
			w := build(rt)
			restore := ApplyProcs(cfg.GOMAXPROCS, th)
			var res Result
			var err error
			if cfg.Timed {
				res, err = RunTimed(rt, w, th, cfg.Duration)
			} else {
				res, err = RunFixed(rt, w, th, cfg.TotalOps)
			}
			restore()
			if err != nil {
				return nil, fmt.Errorf("%s [%v x%d]: %w", title, a, th, err)
			}
			s.AddCell(a.String(), th, res)
		}
	}
	return s, nil
}

// FormatThroughput renders the panel as a throughput table (k tx/s).
func (s *Series) FormatThroughput() string {
	return s.format("throughput (k tx/s)", func(r Result) float64 { return r.ThroughputKTx() })
}

// FormatAborts renders the panel as an abort-rate table (%).
func (s *Series) FormatAborts() string {
	return s.format("aborts (%)", func(r Result) float64 { return r.AbortPct() })
}

// FormatTime renders the panel as an execution-time table (seconds).
func (s *Series) FormatTime() string {
	return s.format("time (s)", func(r Result) float64 { return r.Elapsed.Seconds() })
}

func (s *Series) format(metric string, f func(Result) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", s.Title, metric)
	fmt.Fprintf(&b, "%-8s", "threads")
	for _, c := range s.Columns {
		fmt.Fprintf(&b, "%20s", c)
	}
	b.WriteByte('\n')
	for _, th := range s.Threads {
		fmt.Fprintf(&b, "%-8d", th)
		for _, c := range s.Columns {
			fmt.Fprintf(&b, "%20.2f", f(s.Cells[c][th]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Speedup reports how much faster (throughput) or shorter (time) the
// semantic column is versus its baseline at the given thread count.
func (s *Series) Speedup(base, sem string, threads int, timed bool) float64 {
	b, okB := s.Cells[base][threads]
	m, okM := s.Cells[sem][threads]
	if !okB || !okM {
		return 0
	}
	if timed {
		if m.ThroughputKTx() == 0 {
			return 0
		}
		return m.ThroughputKTx() / b.ThroughputKTx()
	}
	if m.Elapsed <= 0 {
		return 0
	}
	return b.Elapsed.Seconds() / m.Elapsed.Seconds()
}
