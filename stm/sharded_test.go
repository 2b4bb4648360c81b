package stm_test

// Sharded-runtime correctness suite (DESIGN.md §11): cross-shard atomicity
// (conservation when every transfer spans a shard boundary, with and without
// fault injection into phase 1 of the two-phase commit), shard routing
// isolation (single-shard traffic must never move another shard's commit
// metadata), and the cross-shard semantics of the composed primitives.

import (
	"sync"
	"testing"
	"time"

	"semstm/stm"
)

// shardableAlgos are the concrete two-phase engines a sharded runtime
// composes — both classical/semantic pairs of the TL2 and NOrec families,
// plus the progressive hybrid engines (whose irrevocable fallback the shard
// layer disables in favor of the runtime escalation gate).
var shardableAlgos = []stm.Algorithm{
	stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2, stm.HyTM, stm.HyTMMid,
}

func eachShardable(t *testing.T, nshards int, f func(t *testing.T, rt *stm.Runtime)) {
	t.Helper()
	for _, a := range shardableAlgos {
		t.Run(a.String(), func(t *testing.T) {
			f(t, stm.NewShardedRuntime(a, nshards))
		})
	}
}

// shardedAccounts builds `per` accounts on each of rt's shards, all holding
// initial.
func shardedAccounts(rt *stm.Runtime, per int, initial int64) [][]*stm.Var {
	shards := make([][]*stm.Var, rt.Shards())
	for s := range shards {
		shards[s] = stm.NewVarsOn(s, per, initial)
	}
	return shards
}

func shardedTotal(shards [][]*stm.Var) int64 {
	var sum int64
	for _, sh := range shards {
		for _, a := range sh {
			sum += a.Load()
		}
	}
	return sum
}

// xorshift is the allocation-free per-worker PRNG of the concurrency tests.
func xorshift(s *uint64) uint64 {
	*s ^= *s << 13
	*s ^= *s >> 7
	*s ^= *s << 17
	return *s
}

// crossTransfers hammers rt with transfers in which the source and
// destination accounts ALWAYS live on different shards, so every commit runs
// the two-phase cross-shard path.
func crossTransfers(rt *stm.Runtime, shards [][]*stm.Var, workers, per int) {
	n := len(shards)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ss := int(xorshift(&seed) % uint64(n))
				ds := int(xorshift(&seed) % uint64(n-1))
				if ds >= ss {
					ds++ // ds != ss: the transfer must cross shards
				}
				src := shards[ss][xorshift(&seed)%uint64(len(shards[ss]))]
				dst := shards[ds][xorshift(&seed)%uint64(len(shards[ds]))]
				amt := int64(1 + xorshift(&seed)%50)
				rt.Atomically(func(tx *stm.Tx) {
					if tx.GTE(src, amt) {
						tx.Dec(src, amt)
						tx.Inc(dst, amt)
					}
				})
			}
		}(uint64(w)*0x9E3779B9 + 1)
	}
	wg.Wait()
}

// TestShardedBankConservationCross asserts the cross-shard commit is atomic:
// with every transfer spanning shards, money is conserved, the runtime
// quiesces cleanly, and the cross-shard machinery demonstrably ran (ticket
// advanced, per-shard cross counters non-zero).
func TestShardedBankConservationCross(t *testing.T) {
	const nshards, per, initial = 4, 8, 1000
	workers, ops := 8, 400
	if testing.Short() {
		workers, ops = 4, 120
	}
	eachShardable(t, nshards, func(t *testing.T, rt *stm.Runtime) {
		shards := shardedAccounts(rt, per, initial)
		crossTransfers(rt, shards, workers, ops)
		if got, want := shardedTotal(shards), int64(nshards*per*initial); got != want {
			t.Fatalf("money not conserved across shards: total %d, want %d", got, want)
		}
		if rt.ShardTicket() == 0 {
			t.Fatal("no cross-shard commit advanced the ticket (test drove only cross transfers)")
		}
		crossed := uint64(0)
		for _, ss := range rt.ShardStats() {
			crossed += ss.CrossCommits
		}
		if crossed == 0 {
			t.Fatal("per-shard cross-commit counters stayed zero")
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatalf("runtime not quiescent after cross-shard traffic: %v", err)
		}
	})
}

// TestShardedPhase1FaultInjection injects failures into phase 1 of the
// two-phase commit — forced validation failures, spurious commit-site aborts,
// and stretched commit windows — and asserts that an aborted cross-shard
// commit never publishes partially: conservation holds, every abort carries a
// valid typed reason, and no shard leaks a lock.
func TestShardedPhase1FaultInjection(t *testing.T) {
	const nshards, per, initial = 4, 8, 1000
	workers, ops := 8, 300
	if testing.Short() {
		workers, ops = 4, 100
	}
	validReasons := map[string]bool{
		"validation": true, "cmp-flip": true, "orec-locked": true,
		"capacity": true, "spurious": true, "explicit": true,
		"hw-conflict": true, "hw-capacity": true,
	}
	eachShardable(t, nshards, func(t *testing.T, rt *stm.Runtime) {
		rt.SetFaultPlan(stm.NewFaultPlan(0x5A4D).
			WithValidationFail(10).
			WithSpurious(stm.SiteCommit, 10).
			WithCommitDelay(5, 20*time.Microsecond))
		shards := shardedAccounts(rt, per, initial)
		crossTransfers(rt, shards, workers, ops)
		if got, want := shardedTotal(shards), int64(nshards*per*initial); got != want {
			t.Fatalf("fault-injected phase 1 leaked a partial publish: total %d, want %d", got, want)
		}
		sn := rt.Stats()
		if sn.Aborts == 0 {
			t.Fatal("fault plan armed but nothing aborted (injection not reaching the sharded path)")
		}
		for reason, n := range sn.ReasonCounts() {
			if !validReasons[reason] && n > 0 {
				t.Fatalf("abort recorded under invalid reason %q (%d times)", reason, n)
			}
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatalf("lock leaked through fault-injected cross-shard aborts: %v", err)
		}
	})
}

// hammerShard runs single-shard transactions (reads, semantic conditionals,
// increments, write-back) confined to the given shard's variables.
func hammerShard(rt *stm.Runtime, vars []*stm.Var, workers, per int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a := vars[xorshift(&seed)%uint64(len(vars))]
				b := vars[xorshift(&seed)%uint64(len(vars))]
				rt.Atomically(func(tx *stm.Tx) {
					if tx.GTE(a, 1) {
						tx.Dec(a, 1)
						tx.Inc(b, 1)
					}
					tx.Write(b, tx.Read(b))
				})
			}
		}(uint64(w)*0xDEADBEEF + 7)
	}
	wg.Wait()
}

// TestShardRoutingIsolation is the routing property test: transactions
// confined to shard 0 must never move any other shard's commit metadata —
// clocks stay put, other shards' commit counters stay zero, and the
// cross-shard ticket never advances.
func TestShardRoutingIsolation(t *testing.T) {
	const nshards = 4
	workers, ops := 4, 300
	if testing.Short() {
		ops = 100
	}
	eachShardable(t, nshards, func(t *testing.T, rt *stm.Runtime) {
		home := stm.NewVarsOn(0, 16, 1000)
		for s := 1; s < nshards; s++ {
			stm.NewVarsOn(s, 16, 1000) // populated but never touched
		}
		clocks := make([]uint64, nshards)
		for s := 1; s < nshards; s++ {
			c, ok := rt.ShardClock(s)
			if !ok {
				t.Fatalf("shard %d exposes no clock probe", s)
			}
			clocks[s] = c
		}
		hammerShard(rt, home, workers, ops)
		for s := 1; s < nshards; s++ {
			if c, _ := rt.ShardClock(s); c != clocks[s] {
				t.Errorf("shard %d clock moved %d -> %d on single-shard traffic to shard 0", s, clocks[s], c)
			}
		}
		stats := rt.ShardStats()
		if stats[0].SingleCommits == 0 {
			t.Fatal("shard 0 recorded no single-shard commits")
		}
		for s := 1; s < nshards; s++ {
			if stats[s].SingleCommits != 0 || stats[s].CrossCommits != 0 {
				t.Errorf("shard %d saw traffic (%+v) although every transaction was confined to shard 0", s, stats[s])
			}
		}
		if tk := rt.ShardTicket(); tk != 0 {
			t.Errorf("cross-shard ticket advanced to %d with no cross-shard transaction", tk)
		}
	})
}

// TestShardRoutingIsolationAdaptive repeats the routing property while an
// Adaptive runtime is forced through its engine ladder mid-run: switching
// engines must not leak traffic onto untouched shards either (per-shard
// counters accumulate across every engine instance the runtime built).
func TestShardRoutingIsolationAdaptive(t *testing.T) {
	const nshards = 4
	rt := stm.NewShardedRuntime(stm.Adaptive, nshards)
	home := stm.NewVarsOn(0, 16, 1000)
	for s := 1; s < nshards; s++ {
		stm.NewVarsOn(s, 16, 1000)
	}
	ladder := []stm.Algorithm{stm.SNOrec, stm.STL2, stm.SGL}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.SwitchEngine(ladder[i%len(ladder)]); err != nil {
				t.Errorf("SwitchEngine: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	hammerShard(rt, home, 4, 300)
	close(stop)
	wg.Wait()
	stats := rt.ShardStats()
	if stats[0].SingleCommits == 0 {
		t.Fatal("shard 0 recorded no single-shard commits under adaptive switching")
	}
	for s := 1; s < nshards; s++ {
		if stats[s].SingleCommits != 0 || stats[s].CrossCommits != 0 {
			t.Errorf("shard %d saw traffic (%+v) during adaptive switching of shard-0-only load", s, stats[s])
		}
	}
	if tk := rt.ShardTicket(); tk != 0 {
		t.Errorf("cross-shard ticket advanced to %d with no cross-shard transaction", tk)
	}
	if err := rt.CheckQuiescent(); err != nil {
		t.Fatalf("not quiescent after adaptive switching: %v", err)
	}
}

// TestShardedCrossSemantics pins the intra-transaction semantics of the
// cross-shard path: read-your-writes and increment visibility across shard
// boundaries, and the documented degradation of the composed primitives
// (CmpSum / CmpVars spanning shards still compute the right answer).
func TestShardedCrossSemantics(t *testing.T) {
	eachShardable(t, 3, func(t *testing.T, rt *stm.Runtime) {
		a := stm.NewVarOn(0, 10)
		b := stm.NewVarOn(1, 20)
		c := stm.NewVarOn(2, 30)

		rt.Atomically(func(tx *stm.Tx) {
			tx.Write(a, 100)
			tx.Inc(b, 5)
			if got := tx.Read(a); got != 100 {
				t.Errorf("cross-shard read-your-writes: read %d, want 100", got)
			}
			if got := tx.Read(b); got != 25 {
				t.Errorf("cross-shard inc visibility: read %d, want 25", got)
			}
			// Sum spans all three shards: 100 + 25 + 30 = 155.
			if !tx.CmpSum(stm.OpEQ, 155, a, b, c) {
				t.Error("cross-shard CmpSum(EQ, 155) = false")
			}
			if !tx.CmpVars(a, stm.OpGT, c) {
				t.Error("cross-shard CmpVars(a > c) = false with a=100, c=30")
			}
		})
		if a.Load() != 100 || b.Load() != 25 || c.Load() != 30 {
			t.Fatalf("post-commit state a=%d b=%d c=%d, want 100/25/30", a.Load(), b.Load(), c.Load())
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedRuntimeMisuse pins the constructor's validation surface.
func TestShardedRuntimeMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewShardedRuntime(NOrec, 0)", func() { stm.NewShardedRuntime(stm.NOrec, 0) })
	mustPanic("NewShardedRuntime(HTM, 4)", func() { stm.NewShardedRuntime(stm.HTM, 4) })

	// SGL shards by degenerating to one serializing instance — allowed.
	rt := stm.NewShardedRuntime(stm.SGL, 4)
	v := stm.NewVarOn(2, 1)
	rt.Atomically(func(tx *stm.Tx) { tx.Inc(v, 1) })
	if v.Load() != 2 {
		t.Fatalf("sharded SGL lost an increment: %d", v.Load())
	}

	// Classic runtimes report no sharding surface.
	classic := stm.New(stm.NOrec)
	if classic.Shards() != 0 || classic.ShardStats() != nil {
		t.Fatal("classic runtime leaks a sharding surface")
	}
	if _, ok := classic.ShardClock(0); ok {
		t.Fatal("classic runtime answered a shard clock probe")
	}
}
