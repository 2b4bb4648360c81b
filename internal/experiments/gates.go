package experiments

// The acceptance gates scripts/check.sh runs, one table entry each: what the
// gate defends (Bar), how long and how often it measures, and a Run that
// measures both arms and reports them on one line. Every shape parameter a
// gate runs at (shard counts, thread counts, fsync policy, thresholds) is a
// constant here or beside the arm it belongs to.

import (
	"fmt"
	"strings"
	"time"

	"semstm/internal/harness"
	"semstm/stm"
)

// Gate is one acceptance bar.
type Gate struct {
	// Name is the CLI name (semstm-bench -gate NAME).
	Name string
	// Bar states in one line what the gate defends.
	Bar string
	// Dur and Reps are the per-arm measurement window and the best-of count
	// check.sh runs the gate at; Measure applies them to zero Config fields.
	Dur  time.Duration
	Reps int
	// Run measures the gate under cfg.Duration and cfg.Reps and returns the
	// report line — measured figures and the bar — and whether it passed.
	Run func(cfg Config) (line string, ok bool, err error)
}

// Measure runs the gate, taking Dur and Reps for a zero cfg.Duration or
// cfg.Reps.
func (g Gate) Measure(cfg Config) (line string, ok bool, err error) {
	if cfg.Duration <= 0 {
		cfg.Duration = g.Dur
	}
	if cfg.Reps <= 0 {
		cfg.Reps = g.Reps
	}
	return g.Run(cfg)
}

// Thresholds of the six bars.
const (
	shardGateShards  = 32
	shardGateMin     = 8.0
	durGateShards    = 32
	durGatePolicy    = "interval"
	durGateMin       = 0.65
	hybridGateMin    = 1.5
	privGateMin      = 5.0
	reclaimGrowthPct = 10
	reclaimSlack     = 8 << 20 // allocator and GC noise, bytes
	serveGateMin     = 3.0
)

// Gates lists every gate in check.sh order.
func Gates() []Gate {
	return []Gate{
		{Name: "shardgate", Dur: 200 * time.Millisecond, Reps: 2, Run: shardGate,
			Bar: "32 shards, single-shard transactions only, out-commit 1 shard >= 8x on bank and hashtable (NOrec, 32 workers): per-shard clocks stay uncoupled (PR6)"},
		{Name: "durgate", Dur: 300 * time.Millisecond, Reps: 2, Run: durGate,
			Bar: "durable sharded bank under interval fsync keeps >= 0.65x of its volatile twin at 32 shards: fsync stays off the commit path (PR7)"},
		{Name: "hybridgate", Dur: 300 * time.Millisecond, Reps: 2, Run: hybridGate,
			Bar: "HyTM's uninstrumented fast path out-commits classic HTM >= 1.5x on the capacity-edge scan, with fast-path commits > 0 (PR8)"},
		{Name: "privgate", Dur: 200 * time.Millisecond, Reps: 2, Run: privGate,
			Bar: "a privatized snapshot scan out-scans the instrumented transactional scan >= 5x under live writers: the privatization barrier pays for itself (PR9)"},
		{Name: "reclaimgate", Dur: 200 * time.Millisecond, Reps: 1, Run: reclaimGate,
			Bar: "three windows of NewVar -> Atomically -> Retire churn hold live heap within 10% + 8MB with Reclaimed > 0: epochs recycle cells instead of leaking them (PR9)"},
		{Name: "servegate", Dur: 300 * time.Millisecond, Reps: 2, Run: serveGate,
			Bar: "counter load at 1024 connections over a durable 8-shard store (fsync always) runs >= 3x faster batched than per-request: coalescing amortizes commit + fsync (PR10)"},
	}
}

// FindGate returns the gate with the given name.
func FindGate(name string) (Gate, error) {
	for _, g := range Gates() {
		if g.Name == name {
			return g, nil
		}
	}
	return Gate{}, fmt.Errorf("experiments: unknown gate %q", name)
}

// bestOf measures reps times (at least once) and keeps the rep with the
// highest rate: best-of-N filters out scheduler and host noise (CFS
// throttling, frequency ramps) that a single timed run soaks up.
func bestOf[T any](reps int, rate func(T) float64, measure func(rep int) (T, error)) (T, error) {
	var best T
	for i := 0; i < max(reps, 1); i++ {
		r, err := measure(i)
		if err != nil {
			return r, err
		}
		if i == 0 || rate(r) > rate(best) {
			best = r
		}
	}
	return best, nil
}

// ratio is num/den, zero for an arm that measured nothing.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// shardGate uses NOrec: one global seqlock serializes its every commit
// against every reader, so it shows the largest clock-sharing cost and the
// gate has no slack to hide behind.
func shardGate(cfg Config) (string, bool, error) {
	ok := true
	var parts []string
	for _, wl := range []struct {
		name  string
		build harness.Builder
	}{{"bank", shardedBank(0)}, {"hashtable", shardedHashtable}} {
		base, err := runShardedCell(cfg, wl.build, stm.NOrec, 1)
		if err != nil {
			return "", false, err
		}
		wide, err := runShardedCell(cfg, wl.build, stm.NOrec, shardGateShards)
		if err != nil {
			return "", false, err
		}
		r := ratio(wide.ThroughputKTx(), base.ThroughputKTx())
		ok = ok && r >= shardGateMin
		parts = append(parts, fmt.Sprintf("%s 1 shard %.1f ktx/s, %d shards %.1f ktx/s, ratio %.2fx",
			wl.name, base.ThroughputKTx(), shardGateShards, wide.ThroughputKTx(), r))
	}
	return fmt.Sprintf("%v x%d workers: %s (min %.1fx)",
		stm.NOrec, shardedThreads, strings.Join(parts, "; "), shardGateMin), ok, nil
}

func durGate(cfg Config) (string, bool, error) {
	vol, err := runShardedCell(cfg, shardedBank(durableCross), durableAlgo, durGateShards)
	if err != nil {
		return "", false, err
	}
	dur, err := runDurableCell(cfg, durGateShards, durGatePolicy)
	if err != nil {
		return "", false, err
	}
	r := ratio(dur.ThroughputKTx(), vol.ThroughputKTx())
	// The log accounting shows whether fsync amortization collapsed.
	return fmt.Sprintf("bank %v at %d shards: volatile %.1f ktx/s, durable(%s) %.1f ktx/s, ratio %.2f (min %.2f) [appends %d, fsyncs %d, group %.1f]",
		durableAlgo, durGateShards, vol.ThroughputKTx(), durGatePolicy, dur.ThroughputKTx(), r, durGateMin,
		dur.WAL.Appends, dur.WAL.Fsyncs, dur.WAL.GroupSize), r >= durGateMin, nil
}

// hybridGate fails a run whose fast path never committed: it proves nothing
// about instrumentation cost, whatever the ratio.
func hybridGate(cfg Config) (string, bool, error) {
	fast, err := runScanCell(cfg, stm.HyTM)
	if err != nil {
		return "", false, err
	}
	inst, err := runScanCell(cfg, stm.HTM)
	if err != nil {
		return "", false, err
	}
	r := ratio(fast.ThroughputKTx(), inst.ThroughputKTx())
	return fmt.Sprintf("hashtable-scan x%d: instrumented %.1f ktx/s, fast-path %.1f ktx/s, ratio %.2fx (min %.1fx), fast commits %d",
		hybridThreads, inst.ThroughputKTx(), fast.ThroughputKTx(), r, hybridGateMin,
		fast.Stats.HWFastCommits), r >= hybridGateMin && fast.Stats.HWFastCommits > 0, nil
}

func privGate(cfg Config) (string, bool, error) {
	priv, err := runScanRate(cfg, true)
	if err != nil {
		return "", false, fmt.Errorf("privatized arm: %w", err)
	}
	inst, err := runScanRate(cfg, false)
	if err != nil {
		return "", false, fmt.Errorf("instrumented arm: %w", err)
	}
	r := ratio(priv, inst)
	return fmt.Sprintf("snapshot %v x%d writers: instrumented %.1f scans/s, privatized %.1f scans/s, ratio %.2fx (min %.1fx)",
		snapshotAlgo, snapshotWriters, inst, priv, r, privGateMin), r >= privGateMin, nil
}

// reclaimGate passes when some reclamation happened and the last window's
// heap stayed within reclaimGrowthPct of the first plus reclaimSlack: a
// leaked limbo list fails on growth, a disconnected reclaimer on the counter.
func reclaimGate(cfg Config) (string, bool, error) {
	res, err := runChurnWindows(cfg)
	if err != nil {
		return "", false, err
	}
	first, last := res.Heap[0], res.Heap[2]
	growth := 0.0
	if first > 0 {
		growth = (float64(last) - float64(first)) / float64(first) * 100
	}
	const mb = 1 << 20
	line := fmt.Sprintf("churn x1: heap %.2f -> %.2f -> %.2f MB (growth %.1f%%, max %d%% + %dMB slack), retired %d, reclaimed %d",
		float64(res.Heap[0])/mb, float64(res.Heap[1])/mb, float64(res.Heap[2])/mb,
		growth, reclaimGrowthPct, reclaimSlack/mb, res.Retired, res.Reclaimed)
	limit := first + first*reclaimGrowthPct/100 + reclaimSlack
	return line, res.Reclaimed > 0 && last <= limit, nil
}

func serveGate(cfg Config) (string, bool, error) {
	batched, err := runServeArm(cfg, true)
	if err != nil {
		return "", false, err
	}
	unbatched, err := runServeArm(cfg, false)
	if err != nil {
		return "", false, err
	}
	r := ratio(batched.RequestsPerSec, unbatched.RequestsPerSec)
	m := batched.Metrics
	return fmt.Sprintf("%s %v x%d conns, %d shards, fsync=%s: unbatched %.1f kreq/s, batched %.1f kreq/s, ratio %.2fx (min %.1fx) [window %.1f, merged %.1f%%, solo %d]",
		serverWorkload, serverAlgo, serverConns, serverShards, serverFsync,
		unbatched.RequestsPerSec/1000, batched.RequestsPerSec/1000, r, serveGateMin,
		m.MeanBatch(), 100*m.MergedIncRatio(), m.SoloFallbacks()), r >= serveGateMin, nil
}
