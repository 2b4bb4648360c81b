package server

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"semstm/stm"
)

func asAbort(err error, target **stm.AbortError) bool { return errors.As(err, target) }

func newTestRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// genMixed fills r with the next request of a mixed stream over keys
// cells, the first hot of them contended: reads, writes, increments, and
// overdraft-guarded transfers, which span shards whenever their two keys
// hash apart.
func genMixed(rng *rand.Rand, keys, hot uint64, r *Request) {
	r.Ops = r.Ops[:0]
	switch p := rng.Intn(100); {
	case p < 40:
		r.Ops = append(r.Ops, Op{Code: OpRead, Key: rng.Uint64() % keys})
	case p < 65:
		r.Ops = append(r.Ops, Op{Code: OpInc, Key: rng.Uint64() % hot, Val: 1})
	case p < 85:
		a := rng.Uint64() % hot
		b := rng.Uint64() % hot
		r.Ops = append(r.Ops,
			Op{Code: OpCmp, Key: a, Cmp: stm.OpGTE, Val: 1},
			Op{Code: OpInc, Key: a, Val: -1},
			Op{Code: OpInc, Key: b, Val: 1},
		)
	default:
		r.Ops = append(r.Ops, Op{Code: OpWrite, Key: rng.Uint64() % keys, Val: rng.Int63n(1000)})
	}
}

func volatileStore(t *testing.T, algo stm.Algorithm, shards int, batching bool) *Store {
	t.Helper()
	s, err := Open(Config{Algo: algo, Shards: shards, Batching: batching})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.rt.SetYieldEvery(0)
	return s
}

func incReq(key uint64, delta int64) *Request {
	return &Request{Ops: []Op{{Code: OpInc, Key: key, Val: delta}}}
}

func readKey(t *testing.T, s *Store, key uint64) int64 {
	t.Helper()
	res := s.Submit(&Request{Ops: []Op{{Code: OpRead, Key: key}}})
	if !res.Committed || len(res.Reads) != 1 {
		t.Fatalf("read of key %d failed: %+v", key, res)
	}
	return res.Reads[0]
}

// TestOpenRejectsUnshardableEngine: a store always shards its runtime, so an
// engine with neither a two-phase commit nor irrevocability (classic HTM) is
// refused with an error on both the volatile and the durable path rather
// than a panic.
func TestOpenRejectsUnshardableEngine(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := Open(Config{Algo: stm.HTM, Shards: 2, DurableDir: dir})
		if err == nil {
			s.Close()
			t.Fatalf("Open(HTM, dir=%q) succeeded, want an error", dir)
		}
		if !strings.Contains(err.Error(), "cannot be sharded") {
			t.Errorf("Open(HTM, dir=%q): error %q does not say why", dir, err)
		}
	}
}

// TestSubmitBasics exercises the four op kinds and guard semantics through
// the public Submit path on batched and unbatched stores.
func TestSubmitBasics(t *testing.T) {
	for _, batching := range []bool{false, true} {
		s := volatileStore(t, stm.SNOrec, 4, batching)
		res := s.Submit(&Request{Ops: []Op{{Code: OpWrite, Key: 1, Val: 100}}})
		if !res.Committed || !res.GuardOK {
			t.Fatalf("write: %+v", res)
		}
		// Guard holds: write applies.
		res = s.Submit(&Request{Ops: []Op{
			{Code: OpCmp, Key: 1, Cmp: stm.OpGTE, Val: 50},
			{Code: OpInc, Key: 1, Val: -50},
		}})
		if !res.Committed || !res.GuardOK {
			t.Fatalf("guarded dec: %+v", res)
		}
		// Guard fails: commits empty, reads still served.
		res = s.Submit(&Request{Ops: []Op{
			{Code: OpCmp, Key: 1, Cmp: stm.OpGTE, Val: 1000},
			{Code: OpRead, Key: 1},
			{Code: OpInc, Key: 1, Val: -50},
		}})
		if !res.Committed || res.GuardOK {
			t.Fatalf("failed guard: %+v", res)
		}
		if len(res.Reads) != 1 || res.Reads[0] != 50 {
			t.Fatalf("failed-guard reads = %v, want [50]", res.Reads)
		}
		if got := readKey(t, s, 1); got != 50 {
			t.Fatalf("key 1 = %d, want 50 (guard-failed write applied?)", got)
		}
		// Distinct keyspaces are distinct cells.
		s.Submit(&Request{Ops: []Op{{Code: OpWrite, Ks: "other", Key: 1, Val: 7}}})
		if got := readKey(t, s, 1); got != 50 {
			t.Fatalf("keyspace bleed: key 1 = %d", got)
		}
	}
}

// TestIncMergingWindow drives an assembled window through carve+runWindow
// directly and asserts the merge fold: one engine commit, one accumulated
// delta per cell, per-shard batched accounting, and every member's outcome
// demultiplexed as committed.
func TestIncMergingWindow(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	const members = 16
	key := uint64(9)
	shard := s.shardOfKey(key)
	b := s.batchers[shard]
	before := s.rt.Stats().Commits

	var ps []*pending
	b.mu.Lock()
	for i := 0; i < members; i++ {
		r := incReq(key, 3)
		if err := s.prepare(r); err != nil {
			b.mu.Unlock()
			t.Fatalf("prepare: %v", err)
		}
		p := &pending{req: r}
		ps = append(ps, p)
		b.queue = append(b.queue, p)
	}
	b.carve()
	b.mu.Unlock()
	b.runWindow()

	for i, p := range ps {
		if !p.res.Committed || !p.res.GuardOK {
			t.Fatalf("member %d: %+v", i, p.res)
		}
	}
	// The whole window coalesced into one engine commit.
	if commits := s.rt.Stats().Commits - before; commits != 1 {
		t.Fatalf("engine commits = %d, want 1 (window did not coalesce)", commits)
	}
	if merged := s.metrics.mergedIncs.Load(); merged != members-1 {
		t.Fatalf("mergedIncs = %d, want %d", merged, members-1)
	}
	if mean := s.metrics.MeanBatch(); mean != members {
		t.Fatalf("MeanBatch = %v, want %d", mean, members)
	}
	batched := uint64(0)
	for _, ss := range s.rt.ShardStats() {
		batched += ss.BatchedRequests
	}
	if batched != members {
		t.Fatalf("ShardStats batched = %d, want %d", batched, members)
	}
	if got := readKey(t, s, key); got != 3*members {
		t.Fatalf("key = %d, want %d", got, 3*members)
	}
}

// TestDoomedRequestAbortsAlone assembles a window with one doomed member and
// asserts the straggler rule: the window tears apart, the doomed request
// reports its abort, and every batchmate still commits.
func TestDoomedRequestAbortsAlone(t *testing.T) {
	for _, algo := range []stm.Algorithm{stm.SNOrec, stm.STL2} {
		t.Run(algo.String(), func(t *testing.T) {
			s := volatileStore(t, algo, 4, true)
			key := uint64(5)
			shard := s.shardOfKey(key)
			b := s.batchers[shard]

			// A second key on the same shard, so the guarded batchmate joins
			// the window in place instead of falling out as a conflict.
			key2 := key + 1
			for s.shardOfKey(key2) != shard {
				key2++
			}
			doomed := incReq(key, 1)
			doomed.Doom()
			mates := []*Request{incReq(key, 10), incReq(key, 100),
				{Ops: []Op{{Code: OpCmp, Key: key2, Cmp: stm.OpGTE, Val: 0}, {Code: OpWrite, Key: key2, Val: 7}}}}

			var ps []*pending
			b.mu.Lock()
			for _, r := range append([]*Request{doomed}, mates...) {
				if err := s.prepare(r); err != nil {
					b.mu.Unlock()
					t.Fatalf("prepare: %v", err)
				}
				p := &pending{req: r}
				ps = append(ps, p)
				b.queue = append(b.queue, p)
			}
			b.carve()
			b.mu.Unlock()
			b.runWindow()

			if ps[0].res.Committed {
				t.Fatalf("doomed request committed: %+v", ps[0].res)
			}
			var abortErr *stm.AbortError
			if ps[0].res.Err == nil {
				t.Fatalf("doomed request has no error")
			} else if !asAbort(ps[0].res.Err, &abortErr) {
				t.Fatalf("doomed request error %T, want *stm.AbortError", ps[0].res.Err)
			}
			for i, p := range ps[1:] {
				if !p.res.Committed {
					t.Fatalf("batchmate %d aborted with the doomed request: %+v", i, p.res)
				}
			}
			if s.metrics.soloAbort.Load() == 0 {
				t.Fatalf("window abort not recorded in solo-fallback metrics")
			}
		})
	}
}

// TestConflictFallout asserts that an in-place request touching a cell an
// earlier window member wrote falls out to the solo path — and still
// commits, after the window.
func TestConflictFallout(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	key := uint64(11)
	shard := s.shardOfKey(key)
	b := s.batchers[shard]

	first := &Request{Ops: []Op{{Code: OpCmp, Key: key, Cmp: stm.OpGTE, Val: 0}, {Code: OpWrite, Key: key, Val: 1}}}
	second := &Request{Ops: []Op{{Code: OpCmp, Key: key, Cmp: stm.OpGTE, Val: 0}, {Code: OpWrite, Key: key, Val: 2}}}

	var ps []*pending
	b.mu.Lock()
	for _, r := range []*Request{first, second} {
		if err := s.prepare(r); err != nil {
			b.mu.Unlock()
			t.Fatalf("prepare: %v", err)
		}
		p := &pending{req: r}
		ps = append(ps, p)
		b.queue = append(b.queue, p)
	}
	b.carve()
	b.mu.Unlock()
	if len(b.window) != 1 || len(b.fallout) != 1 {
		t.Fatalf("window=%d fallout=%d, want 1/1", len(b.window), len(b.fallout))
	}
	b.runWindow()
	b.runFallout()
	if !ps[0].res.Committed || !ps[1].res.Committed {
		t.Fatalf("results: %+v / %+v", ps[0].res, ps[1].res)
	}
	// Fallout executes after the window: the second write wins.
	if got := readKey(t, s, key); got != 2 {
		t.Fatalf("key = %d, want 2", got)
	}
	if s.metrics.soloConflict.Load() != 1 {
		t.Fatalf("soloConflict = %d, want 1", s.metrics.soloConflict.Load())
	}
}

// TestCrossShardBypass asserts a request whose keys span shards bypasses the
// batcher onto the (two-phase) solo path and still commits.
func TestCrossShardBypass(t *testing.T) {
	s := volatileStore(t, stm.STL2, 8, true)
	// Find two keys on different shards.
	a, b := uint64(1), uint64(2)
	for s.shardOfKey(a) == s.shardOfKey(b) {
		b++
	}
	res := s.Submit(&Request{Ops: []Op{
		{Code: OpInc, Key: a, Val: 1},
		{Code: OpInc, Key: b, Val: 1},
	}})
	if !res.Committed {
		t.Fatalf("cross-shard request: %+v", res)
	}
	if s.metrics.soloCross.Load() != 1 {
		t.Fatalf("soloCross = %d, want 1", s.metrics.soloCross.Load())
	}
	crossed := uint64(0)
	for _, ss := range s.rt.ShardStats() {
		crossed += ss.CrossCommits
	}
	if crossed == 0 {
		t.Fatalf("cross-shard request committed without the two-phase path")
	}
}

// TestSequentialEquivalence replays one seeded request stream through a
// batching store and a non-batching store submitted sequentially: every
// per-request outcome (commit, guard, reads) and the full final state must
// be identical — sequential submission makes the serial orders equal, so
// batching must be completely invisible.
func TestSequentialEquivalence(t *testing.T) {
	const keys, hot = 512, 64
	for _, algo := range []stm.Algorithm{stm.SNOrec, stm.STL2} {
		for _, shards := range []int{1, 8} {
			t.Run(algo.String(), func(t *testing.T) {
				batched := volatileStore(t, algo, shards, true)
				solo := volatileStore(t, algo, shards, false)
				rngA := newTestRng(42)
				rngB := newTestRng(42)
				ra := &Request{}
				rb := &Request{}
				for i := 0; i < 2000; i++ {
					genMixed(rngA, keys, hot, ra)
					genMixed(rngB, keys, hot, rb)
					resA := batched.Submit(ra)
					resB := solo.Submit(rb)
					if resA.Committed != resB.Committed || resA.GuardOK != resB.GuardOK {
						t.Fatalf("req %d: outcomes diverge: %+v vs %+v", i, resA, resB)
					}
					if len(resA.Reads) != len(resB.Reads) {
						t.Fatalf("req %d: read counts diverge", i)
					}
					for j := range resA.Reads {
						if resA.Reads[j] != resB.Reads[j] {
							t.Fatalf("req %d read %d: %d vs %d", i, j, resA.Reads[j], resB.Reads[j])
						}
					}
				}
				for k := uint64(0); k < keys; k++ {
					va := batched.Keyspace("").Var(k).Load()
					vb := solo.Keyspace("").Var(k).Load()
					if va != vb {
						t.Fatalf("key %d: final state %d vs %d", k, va, vb)
					}
				}
			})
		}
	}
}

// TestMetricsRender smoke-checks the Prometheus rendering: every family the
// servegate asserts on must be present.
func TestMetricsRender(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	for i := 0; i < 32; i++ {
		s.Submit(incReq(uint64(i%4), 1))
	}
	var sb strings.Builder
	s.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"semstm_requests_total{outcome=\"committed\"}",
		"semstm_batch_size_bucket{le=\"+Inf\"}",
		"semstm_batch_size_count",
		"semstm_merge_inc_ops_total{kind=\"merged\"}",
		"semstm_solo_fallbacks_total{reason=\"conflict\"}",
		"semstm_shard_commits_total{shard=\"0\",kind=\"batched_requests\"}",
		"semstm_engine_commits_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}
