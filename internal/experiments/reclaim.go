package experiments

// The measurements behind privgate and reclaimgate (DESIGN.md §14): the
// snapshot-analytics double buffer scanned through an ordinary instrumented
// read-only transaction vs through a privatizing flip and uninstrumented
// loads, and a retire-heavy churn that exercises the epoch reclaimer's full
// allocate/retire/recycle loop. privgate defends the point of privatization
// (uninstrumented snapshot scans must beat instrumented ones), reclaimgate
// the point of reclamation (steady-state heap under churn stays bounded).

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"semstm/internal/apps"
	"semstm/internal/core"
	"semstm/internal/harness"
	"semstm/stm"
)

// snapshotWriters is the writer thread count behind each privgate scan
// loop: enough concurrency that instrumented scans pay real invalidation
// traffic.
const snapshotWriters = 4

// snapshotAlgo is privgate's engine: S-NOrec's value-based validation makes
// the instrumented scan pay the full revalidation bill on every writer
// commit, so it is the honest baseline for what privatization buys.
var snapshotAlgo = stm.SNOrec

// runScanRate runs snapshotWriters writer goroutines against one scan loop
// for cfg.duration() and returns completed full-buffer sums per second, best
// of cfg.Reps. It runs under the figure-experiment convention — GOMAXPROCS
// pinned to 1 with the interleave simulation providing concurrency
// (SetYieldEvery, DESIGN.md §8) — so writer commits actually land mid-scan:
// that is what makes the instrumented scan pay invalidation and keeps the
// privatization drain a cooperative handoff instead of a scheduler-quantum
// wait. Only transactional barriers yield, so the privatized mode's
// uninstrumented sum loop runs at full speed — exactly the asymmetry the
// gate defends.
func runScanRate(cfg Config, privatized bool) (float64, error) {
	return bestOf(cfg.Reps, func(rate float64) float64 { return rate }, func(int) (float64, error) {
		restore := harness.ApplyProcs(1, snapshotWriters)
		defer restore()
		rt := stm.New(snapshotAlgo)
		rt.SetYieldEvery(4)
		s := apps.NewSnapshotAnalytics(rt)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < snapshotWriters; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					s.Inc(rng)
				}
			}(int64(w) + 1)
		}
		scans := 0
		start := time.Now()
		for time.Since(start) < cfg.duration() {
			if privatized {
				s.ScanPrivatized()
			} else {
				s.ScanInstrumented()
			}
			scans++
		}
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		if err := s.Check(); err != nil {
			return 0, err
		}
		return float64(scans) / elapsed.Seconds(), nil
	})
}

// churnWorkload is the retire-heavy driver of reclaimgate: every operation
// allocates a Var, uses it transactionally, and retires it — the full
// lifecycle of the epoch reclaimer, with the recycle path (NewVar popping
// the free list) carrying the steady state.
type churnWorkload struct {
	rt *stm.Runtime
}

func (w *churnWorkload) Op(rng *rand.Rand) {
	v := stm.NewVar(rng.Int63())
	w.rt.Atomically(func(tx *stm.Tx) { tx.Inc(v, 1) })
	stm.Retire(v)
}

func (w *churnWorkload) Check() error { return nil }

// churnResult is reclaimgate's measurement: live heap bytes after each
// sampled window plus the reclaimer's counter deltas over the whole run.
type churnResult struct {
	Heap      [3]uint64
	Retired   uint64
	Reclaimed uint64
}

// runChurnWindows runs a warm-up plus three cfg.duration() windows
// of allocate/use/retire churn, sampling live heap bytes after each window
// (each ends with an epoch pump and a forced GC). If reclamation
// works, the later windows sit on the steady-state pool the first window
// built; if retired cells leak, the heap climbs window over window. The
// churn routes every allocation through the public stm lifecycle (NewVar ->
// Atomically -> Retire) so the measurement covers the pin windows of real
// transactions, not just the reclaimer's bookkeeping.
//
// The churn is single-threaded on purpose: a pinned descriptor that the
// scheduler parks mid-transaction legitimately holds back every epoch
// advance for its whole off-CPU quantum, so on a host with fewer cores than
// churners the free-list high-water mark tracks the scheduler's preemption
// tail rather than the allocator — real retention, but not the leak this
// gate is for. Concurrent lifecycle correctness is the chaos suites' job.
func runChurnWindows(cfg Config) (churnResult, error) {
	var res churnResult
	rt := stm.New(stm.SNOrec)
	before := core.ReadEpochStats()
	// Warm-up window, unsampled: the reclaimer's free list is a pool that
	// grows to its high-water mark (in-flight limbo plus recycling slack)
	// during the first churn interval and then plateaus. The gate defends
	// the plateau — a leak grows every window; the pool grows once.
	if _, err := harness.RunTimed(rt, &churnWorkload{rt: rt}, 1, cfg.duration()); err != nil {
		return res, err
	}
	for w := range res.Heap {
		if _, err := harness.RunTimed(rt, &churnWorkload{rt: rt}, 1, cfg.duration()); err != nil {
			return res, err
		}
		// Quiesce: pump the epoch so the limbo buckets empty into the free
		// list, then force a full GC so HeapAlloc reflects live retention.
		for i := 0; i < 4; i++ {
			stm.AdvanceEpoch()
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Heap[w] = ms.HeapAlloc
	}
	after := core.ReadEpochStats()
	res.Retired = after.Retired - before.Retired
	res.Reclaimed = after.Reclaimed - before.Reclaimed
	return res, nil
}
