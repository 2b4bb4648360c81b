package main

import (
	"fmt"

	"semstm/stm"
)

// Sizes of the traced run's parts at the reference 10 seconds; -seconds
// scales them. The workload's own rounds are fractions of its fixed count.
const (
	tracedRefSeconds = 10
	peelRequests     = 4096
	probeTxs         = 2000
	refPassOps       = 200000 // reference serving passes of the lib-* workloads
	walProbeFrames   = 100000
)

// engines are the paper's two semantic algorithms and their base twins.
var engines = []struct {
	prefix         string
	semantic, base stm.Algorithm
}{
	{"norec", stm.SNOrec, stm.NOrec},
	{"tl2", stm.STL2, stm.TL2},
}

// runTraced is the traced run: it emits every per-layer metric. Times come
// from micro-probes and from the layer-peeling replay, counts from the
// engines' and the store's own counters while this workload (or, where the
// workload never enters a layer, its reference stream) runs on them.
func (w *workload) runTraced(e env, seconds float64) (result, []span, error) {
	scale := seconds / tracedRefSeconds
	scaled := func(n int) int { return max(int(float64(n)*scale), 8*e.clients) }
	res := result{Metrics: map[string]metric{}}
	m := map[string]float64{}
	var spans []span
	run := func(rs roundSpec) (round, error) {
		r, err := runRound(e, rs)
		ops, failed := r.attempted()
		res.Attempted += ops
		res.Failed += failed
		return r, err
	}

	// Tracing overhead: the workload's own closed loop, alternately without
	// spans and with a span around every operation.
	var plainRate, tracedRate []float64
	var every hist // the traced rounds time every operation
	for i := 0; i < 3; i++ {
		for _, layer := range []string{"", w.name} {
			rs := w.round(e, w.algo, scaled(w.ops/2))
			rs.layer = layer
			r, err := run(rs)
			if err != nil {
				return res, nil, fmt.Errorf("overhead round: %w", err)
			}
			if layer == "" {
				plainRate = append(plainRate, r.closed.opsPerSec())
			} else {
				tracedRate = append(tracedRate, r.closed.opsPerSec())
				every.merge(&r.closed.lat)
				spans = r.closed.spans
			}
		}
	}
	m["trace.overhead_pct"] = 100 * (1 - median(tracedRate)/median(plainRate))
	m["trace.lat_p99_us"] = every.quantile(0.99) / 1e3
	m["trace.lat_p999_us"] = every.quantile(0.999) / 1e3

	// Engine layers: the workload on each semantic engine and its base twin.
	for _, eng := range engines {
		sem, err := run(w.round(e, eng.semantic, scaled(w.ops/4)))
		if err != nil {
			return res, nil, fmt.Errorf("%s pass: %w", eng.semantic, err)
		}
		base, err := run(w.round(e, eng.base, scaled(w.ops/4)))
		if err != nil {
			return res, nil, fmt.Errorf("%s pass: %w", eng.base, err)
		}
		commits := float64(sem.stats.Commits)
		for name, n := range map[string]uint64{
			"aborts": sem.stats.Aborts, "validations": sem.stats.Validations, "val_entries": sem.stats.ValEntries,
			"reads": sem.stats.Reads, "compares": sem.stats.Compares, "incs": sem.stats.Incs, "promotes": sem.stats.Promotes,
		} {
			m[eng.prefix+"."+name+"_per_commit"] = float64(n) / commits
		}
		m[eng.prefix+".semantic_speedup"] = sem.closed.opsPerSec() / base.closed.opsPerSec()
		if eng.semantic == stm.STL2 {
			m["tl2.clock_adopts_per_commit"] = float64(sem.stats.ClockAdopts) / commits
		}
		if eng.semantic == w.algo {
			m["stm.allocs_per_tx"] = float64(sem.closed.mallocs) / float64(sem.closed.ops)
			m["stm.alloc_bytes_per_op"] = float64(sem.closed.allocBytes) / float64(sem.closed.ops)
			m["stm.spin_waits_per_commit"] = float64(sem.stats.SpinWaits) / commits
		}
		probeEngine(m, eng.prefix, eng.semantic, scaled(probeTxs))
	}
	probeCore(m, scaled(probeTxs))
	probeCrossShard(m, w.algo, scaled(probeTxs))

	// Serving layers, counts: the workload's stream (lib-*: the reference
	// stream) from all clients on a volatile and on a logged store.
	mix := w.refMix()
	passOps := scaled(refPassOps)
	if w.serve != nil {
		passOps = scaled(w.ops / 4)
	}
	pass := roundSpec{ops: passOps, sampleEvery: latencyStride}
	mem, err := run(serveRound(e, serveCfg{algo: w.algo, batching: true, mix: mix}, pass))
	if err != nil {
		return res, nil, fmt.Errorf("volatile pass: %w", err)
	}
	requests := mem.store[`semstm_requests_total{outcome="committed"}`] + mem.store[`semstm_requests_total{outcome="guard_failed"}`] +
		mem.store[`semstm_requests_total{outcome="aborted"}`]
	m["server.mean_window"] = ratio(mem.store["semstm_batch_size_sum"], mem.store["semstm_batch_size_count"])
	m["server.merged_inc_ratio"] = ratio(mem.store[`semstm_merge_inc_ops_total{kind="merged"}`], mem.store[`semstm_merge_inc_ops_total{kind="seen"}`])
	m["server.solo_fallback_share"] = ratio(mem.store[`semstm_solo_fallbacks_total{reason="conflict"}`]+
		mem.store[`semstm_solo_fallbacks_total{reason="window_abort"}`], requests)
	m["server.engine_commits_per_req"] = ratio(mem.store["semstm_engine_commits_total"], requests)
	m["shard.cross_share"] = ratio(float64(mem.stats.CrossCommits), float64(mem.stats.Commits))
	m["shard.cross_revals_per_commit"] = ratio(float64(mem.stats.CrossRevals), float64(mem.stats.Commits))

	logged, err := run(serveRound(e, serveCfg{algo: w.algo, batching: true, durable: true, mix: mix}, pass))
	if err != nil {
		return res, nil, fmt.Errorf("logged pass: %w", err)
	}
	acked := logged.store[`semstm_requests_total{outcome="committed"}`]
	m["wal.fsyncs_per_op"] = ratio(logged.store["semstm_wal_fsyncs_total"], acked)
	m["wal.bytes_per_op"] = ratio(float64(logged.logBytes), acked)

	wp, err := probeWAL(e, mix, scaled(walProbeFrames))
	if err != nil {
		return res, nil, err
	}
	m["wal.append_ns"] = wp.appendNS
	m["wal.append_always_us"] = wp.alwaysUS
	m["wal.bytes_per_frame"] = wp.bytesPerFrame
	m["wal.group_size"] = wp.groupSize
	m["wal.recover_ns_per_frame"] = wp.recoverNS

	// Serving layers, times: the peeling replay.
	p, err := peel(e, w.algo, mix, scaled(peelRequests))
	if err != nil {
		return res, nil, err
	}
	base := int32(len(spans)) // peel's parent indexes become this run's
	for _, sp := range p.spans {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		spans = append(spans, sp)
	}
	m["tcp.roundtrip_us"] = p.mean["tcp"] / 1e3
	m["tcp.self_us_per_op"] = (p.mean["tcp"] - p.mean["server.batched"]) / 1e3
	m["wal.self_ns_per_op"] = p.mean["wal"] - p.mean["server.batched"]
	m["server.handoff_ns"] = p.mean["server.batched"] - p.mean["server.solo"]
	m["server.self_ns_per_op"] = p.mean["server.solo"] - p.mean["shard"]
	m["shard.single_self_ns"] = p.mean["shard"] - p.mean["engine"]
	m["stm.atomically_empty_ns"] = p.mean["stm.empty"]
	// The self times of a stack telescope to its traced mean, so what the
	// peeling leaves unattributed is the untraced stack minus that.
	m["tcp.unattributed_ns"] = p.bulk["tcp"] - p.mean["tcp"]
	m["wal.unattributed_ns"] = p.bulk["wal"] - p.mean["wal"]
	m["tcp.codec_ns"], m["tcp.bytes_per_req"] = probeCodec(e, mix, scaled(peelRequests))

	// The open loop at every fixed rate, over TCP.
	tcp := findWorkload("serve-tcp")
	rs := serveRound(e, serveCfg{algo: w.algo, batching: true, tcp: true, mix: mix},
		roundSpec{ops: scaled(tcp.ops / 8), sampleEvery: 1, openOps: scaled(tcp.openOps / 2), rates: openRates})
	open, err := run(rs)
	if err != nil {
		return res, nil, fmt.Errorf("open loop: %w", err)
	}
	var lag hist
	m["tcp.max_rate_ok_rps"] = 0 // no rate met the limit
	for i := range open.open {
		ph := &open.open[i]
		lag.merge(&ph.lag)
		p99 := ph.lat.quantile(0.99) / 1e3
		if i != reportRate {
			m["tcp.lat_p50_us_"+openNames[i]] = ph.lat.quantile(0.5) / 1e3
			m["tcp.lat_p99_us_"+openNames[i]] = p99
		}
		if ph.failed == 0 && p99 <= latencyLimitUS && !ph.backlogGrew {
			m["tcp.max_rate_ok_rps"] = openRates[i]
		}
		fmt.Printf("open loop %s: %d requests, p50 %.1f us, p99 %.1f us, generator lag p99 %.1f us, backlog growing: %v\n",
			openNames[i], ph.ops, ph.lat.quantile(0.5)/1e3, p99, ph.lag.quantile(0.99)/1e3, ph.backlogGrew)
	}
	m["tcp.gen_lag_p99_us"] = lag.quantile(0.99) / 1e3

	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	res.Correct = res.Failed == 0
	return res, spans, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
