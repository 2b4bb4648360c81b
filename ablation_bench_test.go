package semstm

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - read-set de-duplication (Section 4.1 discusses why the paper appends
//     duplicates instead of scanning);
//   - S-TL2's phase-1 snapshot extension (Algorithm 7 lines 19-25);
//   - the contention-management backoff policy;
//   - hardware capacity in the hybrid HTM, where the semantic build's
//     smaller tracked sets translate into fewer fallbacks.
//
// Run with: go test -bench=Ablation -benchmem

import (
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/internal/stamp"
	"semstm/stm"
)

// benchParallelism multiplies GOMAXPROCS to keep real transaction
// concurrency even on small machines.
const benchParallelism = 4

// runAblation drives a workload builder over a pre-configured runtime.
func runAblation(b *testing.B, rt *stm.Runtime, w harness.Workload) {
	before := rt.Stats()
	var seed atomic.Int64
	b.SetParallelism(benchParallelism)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			w.Op(rng)
		}
	})
	b.StopTimer()
	sn := rt.Stats().Sub(before)
	b.ReportMetric(sn.AbortRate(), "aborts%")
	if err := w.Check(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationReadDedup measures the duplicate-scan trade-off on the
// probe-heavy hashtable: deduplication shrinks validation work but pays a
// linear scan on every read.
func BenchmarkAblationReadDedup(b *testing.B) {
	for _, dedup := range []bool{false, true} {
		name := "append-duplicates"
		if dedup {
			name = "dedup-scan"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.New(stm.SNOrec)
			rt.SetReadDedup(dedup)
			rt.SetYieldEvery(4)
			runAblation(b, rt, apps.NewHashtable(rt, 2048))
		})
	}
}

// BenchmarkAblationPhase1Extension quantifies S-TL2's snapshot extension on
// the LRU cache — the workload whose S-TL2 results the paper explains by
// "the non-transformed reads ... make the first phase shorter".
func BenchmarkAblationPhase1Extension(b *testing.B) {
	for _, noExtend := range []bool{false, true} {
		name := "extension-on"
		if noExtend {
			name = "extension-off"
		}
		b.Run(name, func(b *testing.B) {
			rt := stm.New(stm.STL2)
			rt.SetNoExtend(noExtend)
			rt.SetYieldEvery(4)
			runAblation(b, rt, apps.NewLRUCache(rt, 64, 8))
		})
	}
}

// BenchmarkAblationBackoff compares contention-management policies on a
// deliberately hot bank (few accounts, many conflicts).
func BenchmarkAblationBackoff(b *testing.B) {
	policies := []struct {
		name string
		p    stm.BackoffPolicy
	}{
		{"exp", stm.BackoffExp},
		{"yield", stm.BackoffYield},
		{"none", stm.BackoffNone},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			rt := stm.New(stm.NOrec)
			rt.SetBackoff(pol.p)
			rt.SetYieldEvery(4)
			runAblation(b, rt, apps.NewBank(rt, 8, 1000))
		})
	}
}

// BenchmarkAblationHTMCapacity sweeps the simulated hardware capacity on the
// increment-heavy Kmeans kernel: the semantic build tracks one write-set
// entry per accumulator instead of a read+write pair, so it stays in
// hardware at capacities where the base build falls back.
func BenchmarkAblationHTMCapacity(b *testing.B) {
	for _, capacity := range []int{12, 24, 48} {
		for _, algo := range []stm.Algorithm{stm.HTM, stm.SHTM} {
			b.Run(algo.String()+"/cap="+strconv.Itoa(capacity), func(b *testing.B) {
				rt := stm.New(algo)
				rt.ConfigureHTM(capacity, 4, 0)
				rt.SetYieldEvery(4)
				w := stamp.NewKmeans(rt, 16, 8)
				runAblation(b, rt, w)
				fallbacks, hwAborts := rt.HTMStats()
				if sn := rt.Stats(); sn.Commits > 0 {
					b.ReportMetric(100*float64(fallbacks)/float64(sn.Commits), "fallback%")
					b.ReportMetric(float64(hwAborts)/float64(sn.Commits), "hwAborts/tx")
				}
			})
		}
	}
}
