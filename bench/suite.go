package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The builder contract's run-time cap: the driver makes 4 runs plus 22 per
// workload and all of them, with two builds, must end within this.
const driverCapSeconds = 3420

// suiteRun is one invocation's worth of numbers inside a suite report.
type suiteRun struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Rep      int     `json:"rep"`
	WallS    float64 `json:"wall_s"`
	Result   result  `json:"result"`
}

// spread is one metric × workload cell of the self-check table.
type spread struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Median   float64  `json:"median"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	Spread   float64  `json:"spread"` // (Q3 - Q1) / |median|
	Bound    *float64 `json:"bound,omitempty"`
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(v, n=4)
// does, which is what the driver applies to its ten runs per workload. For
// three values they are the minimum and the maximum.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

type suiteReport struct {
	Seed    uint64     `json:"seed"`
	Clients int        `json:"clients"`
	Seconds float64    `json:"seconds"`
	Fsync   string     `json:"fsync_policy"`
	Claim   *string    `json:"claim"` // this benchmark compares nothing: always null
	Runs    []suiteRun `json:"runs"`
	Spreads []spread   `json:"spreads,omitempty"`
}

// runSuite runs every workload in both trace modes, reps times over, each
// repetition on the next seed. With reps > 1 it is the self-check: it
// tabulates every metric's run-to-run spread on this tree — the distance
// between the quartiles as a share of the median, the driver's own measure —
// and fails if an end-to-end metric's spread exceeds its declared bound.
func runSuite(e env, sp *spec, seconds float64, reps int, outPath, spanPath string) error {
	rep := suiteReport{Seed: e.seed, Clients: e.clients, Seconds: seconds, Fsync: fsyncPolicy}
	values := map[[2]string][]float64{} // (workload, metric) → one value per rep
	units := map[string]string{}
	var total time.Duration
	for r := 0; r < reps; r++ {
		for i := range workloads {
			w := &workloads[i]
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== %s, trace %d, repetition %d of %d\n", w.name, trace, r+1, reps)
				t0 := time.Now()
				res, runSpans, err := runOne(w, env{seed: e.seed + uint64(r), clients: e.clients, tmpRoot: e.tmpRoot}, seconds, trace)
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s (trace %d): %d of %d operations failed or returned wrong results", w.name, trace, res.Failed, res.Attempted)
				}
				wall := time.Since(t0)
				total += wall
				fmt.Printf("   wall %.1f s; %d attempted, %d failed\n", wall.Seconds(), res.Attempted, res.Failed)
				rep.Runs = append(rep.Runs, suiteRun{Workload: w.name, Trace: trace, Rep: r, WallS: wall.Seconds(), Result: res})
				for name, m := range res.Metrics {
					values[[2]string{w.name, name}] = append(values[[2]string{w.name, name}], m.Value)
					units[name] = m.Unit
				}
				// Written out now, not kept: spans held across runs would sit in
				// every later run's heap and change its GC pacing.
				if r == 0 && trace == 1 && spanPath != "" {
					if err := writeJSON(fmt.Sprintf("%s.%s.json", spanPath, w.name), runSpans); err != nil {
						return err
					}
				}
			}
		}
	}
	perRun := total.Seconds() / float64(len(rep.Runs))
	driverRuns := 4 + 22*len(workloads)
	fmt.Printf("\n%d runs in %.0f s, %.1f s per run; the driver's %d runs would take about %.0f s of its %d s cap\n",
		len(rep.Runs), total.Seconds(), perRun, driverRuns, perRun*float64(driverRuns), driverCapSeconds)

	var failures []string
	if reps > 1 {
		bounds := map[string]*float64{}
		for _, m := range sp.EndToEnd {
			bounds[m.Name] = m.Bound
		}
		for key, v := range values {
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			c := spread{Workload: key[0], Metric: key[1], Unit: units[key[1]], Median: median(s), Min: s[0], Max: s[len(s)-1], Bound: bounds[key[1]]}
			if q1, q3 := quartiles(s); c.Median != 0 {
				c.Spread = (q3 - q1) / math.Abs(c.Median)
			}
			rep.Spreads = append(rep.Spreads, c)
		}
		sort.Slice(rep.Spreads, func(i, j int) bool {
			a, b := rep.Spreads[i], rep.Spreads[j]
			if (a.Bound != nil) != (b.Bound != nil) {
				return a.Bound != nil
			}
			if a.Metric != b.Metric {
				return a.Metric < b.Metric
			}
			return a.Workload < b.Workload
		})
		fmt.Printf("\n%-30s %-14s %14s %14s %14s %8s %8s\n", "metric", "workload", "median", "min", "max", "spread", "bound")
		for _, c := range rep.Spreads {
			bound := "-"
			if c.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", 100**c.Bound)
				if c.Spread > *c.Bound {
					bound += " !"
					failures = append(failures, fmt.Sprintf("%s on %s: spread %.1f%% over bound %.1f%%", c.Metric, c.Workload, 100*c.Spread, 100**c.Bound))
				}
			}
			fmt.Printf("%-30s %-14s %14.4f %14.4f %14.4f %7.1f%% %8s\n", c.Metric, c.Workload, c.Median, c.Min, c.Max, 100*c.Spread, bound)
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, rep); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("self-check: %d end-to-end metrics spread wider than their bound: %v", len(failures), failures)
	}
	return nil
}
