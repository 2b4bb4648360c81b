package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"semstm/internal/server"
	"semstm/internal/wal"
	"semstm/stm"
)

// Layer-peeling replay: the first requests of client 0's stream go, from one
// caller, through successively shorter stacks built from the layers' public
// functions. A layer's self time is its stack's mean time per request minus
// the next shorter stack's. The TCP stack costs tens of microseconds per
// request and replays n requests; the in-process stacks cost about one and
// replay peelInProcess times as many, so both are timed over a similar span.
//
//	tcp             Client.Do over loopback to Serve(volatile batched store)
//	wal             Store.Submit, write-ahead logged (fsync interval), batched
//	server.batched  Store.Submit, volatile, Batching: true
//	server.solo     Store.Submit, volatile, Batching: false
//	shard           rt.Atomically(body) on the solo store's sharded runtime and cells
//	engine          rt.Atomically(body) on stm.New(algo) with plain Vars
//	stm.empty       rt.Atomically(func(*Tx){}) on the same runtime
const (
	peelPasses    = 5
	peelInProcess = 8
)

type peelStack struct {
	layer  string
	parent int // index of the stack this one is peeled out of, -1 at a top
	n      int // requests replayed per pass
	do     func(i int) bool
}

type peeled struct {
	mean  map[string]float64 // layer → median over passes of mean ns per request, clock-read cost removed
	bulk  map[string]float64 // tcp, wal: untraced single-caller mean ns per request
	spans []span
}

// peel replays the mix: n requests over TCP, peelInProcess*n below it.
func peel(e env, algo stm.Algorithm, m mix, n int) (*peeled, error) {
	stream := newStream(e.seed, 0)
	long := peelInProcess * n
	reqs := make([]request, long)
	for i := range reqs {
		reqs[i] = stream.request(m)
	}

	dir, err := e.tempDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	open := func(cfg serveCfg) (*serveInst, error) {
		cfg.algo, cfg.mix = algo, m
		return openServe(cfg, e.seed, 1)
	}
	front, err := open(serveCfg{batching: true, tcp: true})
	if err != nil {
		return nil, err
	}
	defer front.close()
	dur, err := open(serveCfg{batching: true, durable: true, dir: dir})
	if err != nil {
		return nil, err
	}
	defer dur.close()
	solo, err := open(serveCfg{})
	if err != nil {
		return nil, err
	}
	defer solo.close()

	// The cells below the store: the solo store's own (sharded runtime) and
	// plain unsharded ones, resolved before any timing.
	type cells struct{ a, b *stm.Var }
	sharded, plain := make([]cells, long), make([]cells, long)
	ks, plainVars := solo.store.Keyspace(""), map[uint64]*stm.Var{}
	plainVar := func(k uint64) *stm.Var {
		v := plainVars[k]
		if v == nil {
			v = stm.NewVar(hotInitial)
			plainVars[k] = v
		}
		return v
	}
	for i, q := range reqs {
		sharded[i] = cells{ks.Var(q.a), ks.Var(q.b)}
		plain[i] = cells{plainVar(q.a), plainVar(q.b)}
	}
	shardRT, plainRT := solo.store.Runtime(), stm.New(algo)

	var (
		wireOps []server.WireOp
		req     = &server.Request{Ops: make([]server.Op, 0, 4)}
		cur     request
		curA    *stm.Var
		curB    *stm.Var
		body    = func(tx *stm.Tx) { cur.body(tx, curA, curB) }
		sent    uint64
	)
	submit := func(s *server.Store) func(int) bool {
		return func(i int) bool {
			req.Ops = reqs[i].ops(req.Ops[:0])
			res := s.Submit(req)
			return res.Committed && res.GuardOK && len(res.Reads) == reqs[i].reads()
		}
	}
	stacks := []peelStack{
		{"tcp", -1, n, func(i int) bool {
			wireOps = reqs[i].wire(wireOps[:0])
			sent++
			resp, err := front.conns[0].Do(wireOps)
			return err == nil && resp.OK && resp.Guard && resp.ID == sent && len(resp.Reads) == reqs[i].reads()
		}},
		{"wal", -1, long, submit(dur.store)},
		{"server.batched", 0, long, submit(front.store)},
		{"server.solo", 2, long, submit(solo.store)},
		{"shard", 3, long, func(i int) bool {
			cur, curA, curB = reqs[i], sharded[i].a, sharded[i].b
			shardRT.Atomically(body)
			return true
		}},
		{"engine", 4, long, func(i int) bool {
			cur, curA, curB = reqs[i], plain[i].a, plain[i].b
			plainRT.Atomically(body)
			return true
		}},
		{"stm.empty", 5, long, func(int) bool {
			plainRT.Atomically(func(*stm.Tx) {})
			return true
		}},
	}

	p := &peeled{mean: map[string]float64{}, bulk: map[string]float64{}}
	// One span costs two clock reads; priced with an empty stack so it can be
	// taken out of the bottom layer (it cancels in every difference above).
	timer := make([]float64, peelPasses)
	means, bulk := make([][]float64, len(stacks)), make([][]float64, len(stacks))
	for pass := 0; pass < peelPasses; pass++ {
		t0 := sinceStart()
		for i := 0; i < long; i++ {
			a := sinceStart()
			b := sinceStart()
			_ = b - a
		}
		timer[pass] = float64(sinceStart()-t0) / float64(long)
		keep := pass == peelPasses-1
		if keep {
			p.spans = make([]span, 0, n+(len(stacks)-1)*long)
		}
		base := make([]int, len(stacks)) // first span index of each stack in this pass
		for s, st := range stacks {
			base[s] = len(p.spans)
			var total int64
			for i := 0; i < st.n; i++ {
				a := sinceStart()
				ok := st.do(i)
				b := sinceStart()
				if !ok {
					return nil, fmt.Errorf("peel: %s failed on request %d", st.layer, i)
				}
				total += b - a
				if keep {
					parent := int32(-1)
					if st.parent >= 0 && i < stacks[st.parent].n {
						parent = int32(base[st.parent] + i)
					}
					p.spans = append(p.spans, span{Req: uint32(i), Layer: st.layer, Parent: parent, Start: a, End: b})
				}
			}
			means[s] = append(means[s], float64(total)/float64(st.n))
			if st.parent >= 0 {
				continue
			}
			// The same full stack without spans, for the residue the
			// peeling leaves unattributed.
			t0 := time.Now()
			for i := 0; i < st.n; i++ {
				if !st.do(i) {
					return nil, fmt.Errorf("peel: %s failed on request %d", st.layer, i)
				}
			}
			bulk[s] = append(bulk[s], float64(time.Since(t0).Nanoseconds())/float64(st.n))
		}
	}
	clock := median(timer) / 2 // two reads per turn above; one read's worth lands inside a span
	for s, st := range stacks {
		p.mean[st.layer] = median(means[s]) - clock
		if st.parent < 0 {
			p.bulk[st.layer] = median(bulk[s])
		}
	}
	return p, nil
}

// probeCodec times JSON marshal + unmarshal of the public wire types for the
// stream's requests and their responses, per request, and sizes the two lines
// (newline framing included).
func probeCodec(e env, m mix, n int) (ns, wireBytes float64) {
	stream := newStream(e.seed, 0)
	reqs := make([]server.WireRequest, n)
	resps := make([]server.WireResponse, n)
	for i := range reqs {
		q := stream.request(m)
		reqs[i] = server.WireRequest{ID: uint64(i), Ops: q.wire(nil)}
		resps[i] = server.WireResponse{ID: uint64(i), OK: true, Guard: true}
		if q.reads() > 0 {
			resps[i].Reads = []int64{hotInitial}
		}
	}
	i, size := 0, 0
	ns = timePerCall(n, func() {
		var req server.WireRequest
		var resp server.WireResponse
		// Errors cannot occur: both values are marshalled just before.
		line, _ := json.Marshal(&reqs[i%n])
		_ = json.Unmarshal(line, &req)
		back, _ := json.Marshal(&resps[i%n])
		_ = json.Unmarshal(back, &resp)
		if i < n {
			size += len(line) + len(back) + 2
		}
		i++
	})
	return ns, float64(size) / float64(n)
}

// walProbe drives the log set directly with the records the stream's
// requests would log (reads log nothing; a transfer between shards is one
// cross-shard commit).
type walProbe struct {
	appendNS      float64 // single caller, fsync interval
	bytesPerFrame float64
	recoverNS     float64 // wal.Recover per frame
	groupSize     float64 // frames per group-commit batch with e.clients appenders
	alwaysUS      float64 // single caller, fsync always: the sandbox's fsync
}

func probeWAL(e env, m mix, n int) (wp walProbe, err error) {
	router, err := server.Open(server.Config{Shards: serveShards}) // only for its key → shard routing
	if err != nil {
		return wp, err
	}
	type frame struct {
		parts []int
		recs  [][]wal.Record
	}
	stream := newStream(e.seed, 0)
	var frames []frame
	for len(frames) < n {
		q := stream.request(m)
		a, b := router.ShardOfKey(q.a), router.ShardOfKey(q.b)
		switch q.kind {
		case reqInc:
			frames = append(frames, frame{[]int{a}, [][]wal.Record{{{Op: wal.OpInc, Key: q.a + 1, Val: 1}}}})
		case reqWrite:
			frames = append(frames, frame{[]int{a}, [][]wal.Record{{{Op: wal.OpWrite, Key: q.a + 1, Val: q.val}}}})
		case reqTransfer:
			from, to := wal.Record{Op: wal.OpInc, Key: q.a + 1, Val: -1}, wal.Record{Op: wal.OpInc, Key: q.b + 1, Val: 1}
			switch {
			case a == b:
				frames = append(frames, frame{[]int{a}, [][]wal.Record{{from, to}}})
			case a < b:
				frames = append(frames, frame{[]int{a, b}, [][]wal.Record{{from}, {to}}})
			default:
				frames = append(frames, frame{[]int{b, a}, [][]wal.Record{{to}, {from}}})
			}
		}
	}
	log := func(set *wal.Set, f frame) error {
		if len(f.parts) == 1 {
			return set.LogSingle(f.parts[0], f.recs[0])
		}
		return set.LogCross(f.parts, f.recs)
	}
	// run appends frames[lo:hi) from `appenders` goroutines and reports the
	// wall time.
	run := func(policy wal.SyncPolicy, appenders, count int, then func(dir string, set *wal.Set, wall time.Duration) error) error {
		dir, err := e.tempDir()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		set, err := wal.Open(dir, serveShards, wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		errs := make(chan error, appenders)
		t0 := time.Now()
		for a := 0; a < appenders; a++ {
			go func(a int) {
				for i := a; i < count; i += appenders {
					if err := log(set, frames[i]); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(a)
		}
		for a := 0; a < appenders; a++ {
			if e := <-errs; e != nil {
				err = e
			}
		}
		wall := time.Since(t0)
		if cerr := set.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		return then(dir, set, wall)
	}

	err = run(wal.SyncInterval, 1, n, func(dir string, set *wal.Set, wall time.Duration) error {
		wp.appendNS = float64(wall.Nanoseconds()) / float64(n)
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rs, err := wal.Recover(dir)
		if err != nil {
			return err
		}
		wp.recoverNS = float64(time.Since(t0).Nanoseconds()) / float64(rs.Frames)
		if appended := set.Stats().Appends; rs.Frames != appended {
			return fmt.Errorf("wal probe: %d frames appended, %d recovered", appended, rs.Frames)
		}
		wp.bytesPerFrame = float64(size) / float64(rs.Frames)
		return nil
	})
	if err != nil {
		return wp, err
	}
	err = run(wal.SyncInterval, e.clients, n, func(_ string, set *wal.Set, _ time.Duration) error {
		wp.groupSize = set.Stats().Group
		return nil
	})
	if err != nil {
		return wp, err
	}
	const alwaysAppends = 64
	err = run(wal.SyncAlways, 1, min(alwaysAppends, n), func(_ string, _ *wal.Set, wall time.Duration) error {
		wp.alwaysUS = float64(wall.Microseconds()) / float64(min(alwaysAppends, n))
		return nil
	})
	return wp, err
}
