package experiments

// The durable cell behind durgate (DESIGN.md §12): the sharded bank
// benchmark over stm.OpenDurable at the same thread count, cross fraction and
// interleave policy as its volatile twin (runShardedCell). The pair answers
// the PR7 question — what does writing every commit ahead to the semantic
// redo log cost once group commit has amortized the fsync bill.

import (
	"fmt"
	"os"

	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/stm"
)

// durableCross is the cross-shard fraction of both durgate arms: the high
// point of the PR6 sweep, so the log-before-ticket path of the two-phase
// commit is always exercised.
const durableCross = 0.10

// durableAlgo is the durable cell's engine: the semantic NOrec variant the
// redo log's deferred-increment records are designed around.
var durableAlgo = stm.SNOrec

// durableResult is one durable cell with the log accounting of the same rep.
type durableResult struct {
	harness.Result
	WAL stm.WALStats
}

// durableBank opens a durable runtime in a fresh temp directory and wires
// the sharded bank over durable account blocks. The caller must Close the
// returned Durable and remove dir.
func durableBank(nshards int, policy string) (*stm.Durable, *apps.ShardedBank, string, error) {
	dir, err := os.MkdirTemp("", "semstm-durable-bench-")
	if err != nil {
		return nil, nil, "", err
	}
	d, err := stm.OpenDurable(dir, durableAlgo, nshards, stm.WithFsync(policy))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	blocks := make([][]*stm.Var, nshards)
	for s := range blocks {
		first := uint64(s*shardedBankPerShard + 1)
		blocks[s] = d.Vars(s, first, shardedBankPerShard, shardedBankInitial)
	}
	bank := apps.NewShardedBankVars(d.Runtime(), blocks, shardedBankInitial, durableCross)
	return d, bank, dir, nil
}

// runDurableCell measures one durable bank cell best-of-reps, mirroring
// runShardedCell's measurement discipline. Each rep runs against a fresh log
// directory so no rep pays recovery or replays another rep's history.
func runDurableCell(cfg Config, nshards int, policy string) (durableResult, error) {
	return bestOf(cfg.Reps, durableResult.ThroughputKTx, func(int) (durableResult, error) {
		d, bank, dir, err := durableBank(nshards, policy)
		if err != nil {
			return durableResult{}, err
		}
		rt := d.Runtime()
		rt.SetYieldEvery(shardedYield)
		rt.SetBackoff(stm.BackoffNone)
		restore := harness.ApplyProcs(shardedGOMAXPROCS, shardedThreads)
		r, err := harness.RunTimed(rt, bank, shardedThreads, cfg.duration())
		restore()
		res := durableResult{Result: r, WAL: d.WALStats()}
		failed := d.WALFailed()
		closeErr := d.Close()
		os.RemoveAll(dir)
		if err != nil {
			return res, err
		}
		if closeErr != nil {
			return res, fmt.Errorf("experiments: durable cell close: %w", closeErr)
		}
		if failed {
			return res, fmt.Errorf("experiments: durable cell degraded to volatile mode (log failure)")
		}
		return res, nil
	})
}
