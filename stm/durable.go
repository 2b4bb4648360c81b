// Durable runtimes: the public face of the write-ahead-logged commit
// pipeline (DESIGN.md §12). OpenDurable recovers a log directory, binds a
// sharded runtime whose commits append semantic redo records before
// publishing, and hands variables back their pre-crash state.
package stm

import (
	"fmt"
	"sync"

	"semstm/internal/core"
	"semstm/internal/shard"
	"semstm/internal/wal"
)

// Durable wraps a sharded Runtime whose commits are written ahead to a
// segmented per-shard redo log. Variables participate by stable durable
// key (Durable.Var); volatile Vars (NewVar/NewVarOn) keep working unlogged.
//
//	d, err := stm.OpenDurable(dir, stm.SNOrec, 8)
//	acct := d.Var(0, 1, 1000) // shard 0, key 1, initial 1000 (or recovered)
//	d.Runtime().Atomically(func(tx *stm.Tx) { tx.Inc(acct, -50) })
//	d.Close()
type Durable struct {
	rt  *Runtime
	set *wal.Set
	rec RecoveryInfo

	mu   sync.Mutex
	keys map[uint64]bool
}

// RecoveryInfo summarizes what opening the log directory replayed and
// repaired — the numbers the crash-recovery suites assert on.
type RecoveryInfo struct {
	// Frames is how many intact log frames replay applied; CrossApplied how
	// many distinct cross-shard commits they formed.
	Frames, CrossApplied uint64
	// TornShards counts shards whose log tail was truncated mid-frame (a
	// torn write); CutFrames counts intact frames discarded because an
	// incomplete cross-shard commit made their suffix unsound.
	CutFrames  uint64
	TornShards int
}

// WALStats is the group-commit accounting of a durable runtime: frames
// appended, batches written, fsyncs issued, and the mean frames-per-batch
// (the fsync amortization factor).
type WALStats struct {
	Appends   uint64
	Batches   uint64
	Fsyncs    uint64
	GroupSize float64
}

// DurableOption configures OpenDurable.
type DurableOption func(*durableCfg)

type durableCfg struct {
	policy string
	plan   *FaultPlan
}

// WithFsync selects the fsync policy: "always" (every group-commit batch,
// the default), "interval" (at most one fsync per window), or "none".
func WithFsync(policy string) DurableOption {
	return func(c *durableCfg) { c.policy = policy }
}

// WithCrashPlan arms a fault plan on both the runtime (spurious aborts,
// validation failures) and the log writer (WithCrash crash sites) — the
// chaos suites' injection point.
func WithCrashPlan(p *FaultPlan) DurableOption {
	return func(c *durableCfg) { c.plan = p }
}

// OpenDurable opens (creating or recovering) the write-ahead log under dir
// and binds a sharded runtime of the given algorithm to it. Recovery
// verifies each shard's hash chain, truncates torn tails, discards
// incomplete cross-shard commits, and replays the surviving prefix;
// Durable.Var then resolves each durable key against the replayed state.
// The algorithm must be shardable (the TL2/NOrec families, SGL); nshards
// must match the directory's manifest on reopen.
func OpenDurable(dir string, algo Algorithm, nshards int, opts ...DurableOption) (*Durable, error) {
	if err := checkShardable(algo, nshards); err != nil {
		return nil, err
	}
	cfg := durableCfg{policy: "always"}
	for _, opt := range opts {
		opt(&cfg)
	}
	policy, err := wal.ParseSyncPolicy(cfg.policy)
	if err != nil {
		return nil, err
	}
	set, err := wal.Open(dir, nshards, wal.Options{Policy: policy, Plan: cfg.plan})
	if err != nil {
		return nil, err
	}
	rs := set.Recovered()
	d := &Durable{
		rt:  newRuntime(algo, nshards, set),
		set: set,
		rec: RecoveryInfo{
			Frames:       rs.Frames,
			CrossApplied: rs.CrossApplied,
			CutFrames:    rs.CutFrames,
			TornShards:   rs.TornShards,
		},
		keys: make(map[uint64]bool),
	}
	if cfg.plan != nil {
		d.rt.SetFaultPlan(cfg.plan)
	}
	return d, nil
}

// Runtime returns the bound runtime; transactions run through it exactly as
// on a volatile runtime.
func (d *Durable) Runtime() *Runtime { return d.rt }

// Recovery reports what opening the log directory replayed.
func (d *Durable) Recovery() RecoveryInfo { return d.rec }

// Var allocates (or recovers) a durable transactional variable: shard
// affinity, a stable key naming it in the log across process lifetimes, and
// the value to start from when the log has never seen the key. A key
// resolved from the log yields the replayed value — for increment-only
// history, initial plus the replayed delta. Keys must be nonzero and unique
// within the Durable; reusing one panics, since two variables logging under
// one name would corrupt recovery.
func (d *Durable) Var(shard int, key uint64, initial int64) *Var {
	d.mu.Lock()
	if d.keys[key] {
		d.mu.Unlock()
		panic(fmt.Sprintf("stm: durable key %d allocated twice", key))
	}
	d.keys[key] = true
	d.mu.Unlock()
	return core.NewVarDurable(shard, key, d.set.Recovered().Resolve(key, initial))
}

// Vars allocates n durable variables with consecutive keys firstKey,
// firstKey+1, ..., all on the given shard — the block allocator for
// shard-affine durable structures.
func (d *Durable) Vars(shard int, firstKey uint64, n int, initial int64) []*Var {
	out := make([]*Var, n)
	for i := range out {
		out[i] = d.Var(shard, firstKey+uint64(i), initial)
	}
	return out
}

// WALStats returns the group-commit accounting accumulated since open.
func (d *Durable) WALStats() WALStats {
	st := d.set.Stats()
	return WALStats{Appends: st.Appends, Batches: st.Batches, Fsyncs: st.Fsyncs, GroupSize: st.Group}
}

// WALFailed reports whether a log-write failure has latched the runtime
// into volatile degraded mode (see AbortLogFail).
func (d *Durable) WALFailed() bool { return d.rt.eng.(*shard.Engine).WALFailed() }

// Close seals every shard's log. The runtime must be quiescent.
func (d *Durable) Close() error { return d.set.Close() }
