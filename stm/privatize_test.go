package stm_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semstm/internal/core"
	"semstm/stm"
)

// drainFreeList empties the global reclaim free list so a test can attribute
// recycled allocations to its own retirements.
func drainFreeList() {
	for core.ReadEpochStats().Free > 0 {
		stm.NewVar(0)
	}
}

// TestAtomicallyPrivatizeCommits: the privatizing variant must have plain
// Atomically semantics on every engine — same commits, same final state —
// with the barrier as a pure add-on.
func TestAtomicallyPrivatizeCommits(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, rt *stm.Runtime) {
		const workers, per = 4, 200
		c := stm.NewVar(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					rt.AtomicallyPrivatize(func(tx *stm.Tx) { tx.Inc(c, 1) })
				}
			}()
		}
		wg.Wait()
		if got := c.Load(); got != workers*per {
			t.Fatalf("counter = %d, want %d", got, workers*per)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewVarOnNegativeShardPanics: a Var's shard is an allocation-time
// property; negative values must fail loudly rather than truncate.
func TestNewVarOnNegativeShardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVarOn(-1, 0) did not panic")
		}
	}()
	stm.NewVarOn(-1, 0)
}

// TestRecycledVarShardRouting: a cell retired from one shard and recycled
// onto another must route to its new shard — traffic on the recycled Var
// moves only the new shard's clock.
func TestRecycledVarShardRouting(t *testing.T) {
	rt := stm.NewShardedRuntime(stm.SNOrec, 2)
	drainFreeList()

	old := stm.NewVarOn(1, 0)
	oldID := old.ID()
	rt.Atomically(func(tx *stm.Tx) { tx.Inc(old, 1) })
	stm.Retire(old)
	for i := 0; i < 10 && core.ReadEpochStats().Free == 0; i++ {
		stm.AdvanceEpoch()
	}

	v := stm.NewVarOn(0, 5)
	if v.ID() != oldID {
		t.Fatalf("recycled id = %d, want %d (free list not consumed)", v.ID(), oldID)
	}
	if v.Shard() != 0 {
		t.Fatalf("recycled shard = %d, want 0", v.Shard())
	}

	c0, ok0 := rt.ShardClock(0)
	c1, ok1 := rt.ShardClock(1)
	if !ok0 || !ok1 {
		t.Fatal("sharded runtime must expose per-shard clocks")
	}
	rt.Atomically(func(tx *stm.Tx) { tx.Inc(v, 1) })
	n0, _ := rt.ShardClock(0)
	n1, _ := rt.ShardClock(1)
	if n0 == c0 {
		t.Fatal("write to recycled shard-0 Var did not move shard 0's clock")
	}
	if n1 != c1 {
		t.Fatalf("write to recycled shard-0 Var moved shard 1's clock (%d -> %d)", c1, n1)
	}
	if v.Load() != 6 {
		t.Fatalf("recycled Var value = %d, want 6", v.Load())
	}
}

// chaosPrivatize races privatizing unlinkers against fault-plan-doomed
// readers over a generation chain: gen holds the index of the current node
// (a pair of Vars with invariant a == -b != 0), privatizers install a fresh
// pair and retire the old one, and readers assert snapshot atomicity over
// the pair. Premature reclamation — recycling a cell while a doomed reader
// is still pinned to it — would let a committed read observe a torn pair;
// -race additionally catches any unlink that skipped the barrier.
func chaosPrivatize(t *testing.T, rt *stm.Runtime, sharded bool) {
	t.Helper()
	workers, per := chaosScale(t)
	rt.SetFaultPlan(stm.NewFaultPlan(0x9E1).
		WithSpurious(stm.SiteRead, 5).
		WithSpurious(stm.SiteCommit, 8).
		WithValidationFail(10).
		WithCommitDelay(1, 20*time.Microsecond))
	rt.SetEscalateAfter(64)

	const privatizers = 2
	maxGen := 1 + privatizers*per + 1
	slots := make([][2]*stm.Var, maxGen)
	newPair := func(idx int64) [2]*stm.Var {
		shard := 0
		if sharded {
			shard = int(idx) % rt.Shards()
		}
		return [2]*stm.Var{stm.NewVarOn(shard, idx+1), stm.NewVarOn(shard, -(idx + 1))}
	}
	slots[0] = newPair(0)
	gen := stm.NewVar(0)
	var nextIdx atomic.Int64
	var violations atomic.Int64

	var wg sync.WaitGroup
	for p := 0; p < privatizers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				idx := nextIdx.Add(1)
				slots[idx] = newPair(idx)
				victim := int64(0)
				rt.AtomicallyPrivatize(func(tx *stm.Tx) {
					victim = tx.Read(gen)
					tx.Write(gen, idx)
				})
				pair := slots[victim]
				a, b := pair[0].Load(), pair[1].Load()
				if a != victim+1 || b != -(victim+1) {
					violations.Add(1)
				}
				stm.Retire(pair[0])
				stm.Retire(pair[1])
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var idx, a, b int64
				rt.Atomically(func(tx *stm.Tx) {
					idx = tx.Read(gen)
					a = tx.Read(slots[idx][0])
					b = tx.Read(slots[idx][1])
				})
				if a != idx+1 || a+b != 0 {
					violations.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d torn pairs observed past the privatization barrier", n)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if s := core.ReadEpochStats(); s.Retired == 0 {
		t.Fatal("churn retired nothing")
	}
}

// TestChaosPrivatizeClassic covers the single-instance engines whose commit
// fences differ most: NOrec's seqlock drain, TL2's orec-version fence, and
// plain value/version baselines.
func TestChaosPrivatizeClassic(t *testing.T) {
	for _, a := range []stm.Algorithm{stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2, stm.SGL} {
		t.Run(a.String(), func(t *testing.T) {
			chaosPrivatize(t, stm.New(a), false)
		})
	}
}

// TestChaosPrivatizeSharded covers the scoped cross-shard drain: pairs are
// spread across shards, so privatizing commits exercise both single-shard
// and two-phase cross-shard barriers.
func TestChaosPrivatizeSharded(t *testing.T) {
	for _, a := range []stm.Algorithm{stm.SNOrec, stm.STL2} {
		t.Run(a.String(), func(t *testing.T) {
			chaosPrivatize(t, stm.NewShardedRuntime(a, 4), true)
		})
	}
}

// TestChaosPrivatizeHybrid covers the progressive HyTM engine, where a
// privatizing commit additionally demotes the uninstrumented fast path for
// the duration of the drain window.
func TestChaosPrivatizeHybrid(t *testing.T) {
	for _, a := range []stm.Algorithm{stm.HyTM, stm.HyTMMid} {
		t.Run(a.String(), func(t *testing.T) {
			rt := stm.New(a)
			rt.ConfigureHTM(8, 2, 10)
			chaosPrivatize(t, rt, false)
		})
	}
}
