package experiments

// The capacity-edge scan cell behind hybridgate (DESIGN.md §13): classic
// HTM (every barrier a value-pinning read) against HyTM with its
// uninstrumented fast path, same simulated hardware, same retry budget, same
// workload; the only difference is how much per-location bookkeeping a
// hardware transaction performs. The gate runs at the capacity edge because
// that is where the mechanism is structural rather than a wall-clock delta:
// the tail of the fully instrumented engine's per-barrier footprint
// overflows the hardware budget, and every overflowing transaction burns its
// whole retry budget, backs off, and finishes irrevocably, while the fast
// path's first-touch footprint fits and commits in hardware.

import (
	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/stm"
)

// Scan-cell constants: the default retry budget and a mild spurious-abort
// rate so the fallback machinery stays exercised.
const (
	hybridRetries  = 4
	hybridSpurious = 0.5
	// hybridScanCapacity is the hardware budget of the scan cell: inside the
	// tail of a fully instrumented scan transaction's ~230-240-entry tracked
	// set, comfortably above the distinct first-touch footprint of an
	// uninstrumented one (see apps.NewScanHashtable).
	hybridScanCapacity = 256
	// hybridTableCap sizes the hashtable (the Figure 1 size).
	hybridTableCap = 2048
	// hybridThreads keeps the comparison solo: it is about barrier cost, not
	// contention.
	hybridThreads = 1
)

// runScanCell measures the capacity-edge scan on one HTM-backed engine
// best-of-reps (width = thread count, no interleave simulation).
func runScanCell(cfg Config, algo stm.Algorithm) (harness.Result, error) {
	return bestOf(cfg.Reps, harness.Result.ThroughputKTx, func(int) (harness.Result, error) {
		rt := stm.New(algo)
		rt.ConfigureHTM(hybridScanCapacity, hybridRetries, hybridSpurious)
		w := apps.NewScanHashtable(rt, hybridTableCap)
		restore := harness.ApplyProcs(cfg.GOMAXPROCS, hybridThreads)
		defer restore()
		return harness.RunTimed(rt, w, hybridThreads, cfg.duration())
	})
}
