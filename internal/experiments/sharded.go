package experiments

// The sharded-runtime cell behind shardgate and durgate's volatile arm
// (DESIGN.md §11): one of the two micro-benchmarks over
// stm.NewShardedRuntime at a fixed high thread count under the interleave
// simulation. The shard-count sweep answers the PR6 question — how much
// commit-path contention does partitioning the Var space remove.

import (
	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/stm"
)

// Sharded-cell constants. The cells are a weak-scaling design: every shard
// carries the same amount of state (accounts, table cells), so the 1-shard
// cell and the 32-shard cell present identical per-shard contention surfaces
// and the throughput ratio isolates the cost of sharing one clock.
const (
	// shardedThreads is the worker count of every sharded cell — far past the
	// knee of the unsharded engines, where a single NOrec seqlock serializes
	// every commit against every reader.
	shardedThreads = 32
	// shardedYield is the interleave-simulation period (SetYieldEvery) of the
	// sharded cells; they pin GOMAXPROCS=1, so the forced yields are what
	// interleaves the 32 workers (the figure-experiment convention).
	shardedYield = 4
	// shardedGOMAXPROCS pins each sharded cell to one P so the interleave
	// simulation governs scheduling.
	shardedGOMAXPROCS = 1
	// shardedBankPerShard / shardedBankInitial size each bank shard.
	shardedBankPerShard = 2048
	shardedBankInitial  = 1000
	// shardedTableCap sizes each hashtable shard.
	shardedTableCap = 512
)

// shardedBank builds the sharded bank driver; cross is the fraction of
// transactions that deliberately cross a shard boundary.
func shardedBank(cross float64) harness.Builder {
	return func(rt *stm.Runtime) harness.Workload {
		return apps.NewShardedBank(rt, shardedBankPerShard, shardedBankInitial, cross)
	}
}

// shardedHashtable builds the sharded hashtable driver, single-shard
// transactions only.
func shardedHashtable(rt *stm.Runtime) harness.Workload {
	return apps.NewShardedHashtable(rt, shardedTableCap, 0)
}

// runShardedCell measures one sharded cell best-of-reps.
func runShardedCell(cfg Config, build harness.Builder, algo stm.Algorithm, nshards int) (harness.Result, error) {
	return bestOf(cfg.Reps, harness.Result.ThroughputKTx, func(int) (harness.Result, error) {
		rt := stm.NewShardedRuntime(algo, nshards)
		rt.SetYieldEvery(shardedYield)
		// Retry immediately on abort: the cell measures raw commit-path
		// contention, and the default exponential backoff would mask exactly
		// the abort storms the shard axis is swept to expose.
		rt.SetBackoff(stm.BackoffNone)
		w := build(rt)
		restore := harness.ApplyProcs(shardedGOMAXPROCS, shardedThreads)
		defer restore()
		return harness.RunTimed(rt, w, shardedThreads, cfg.duration())
	})
}
