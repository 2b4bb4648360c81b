package main

import (
	"time"

	"semstm/internal/core"
	"semstm/stm"
)

// Single-threaded micro-probes of the layers below the facade. Each times a
// fixed loop several times over and keeps the median repetition.

const (
	probeReps  = 5
	probeWidth = 64 // barriers per probed transaction
)

// timePerCall returns the median over probeReps of fn's mean nanoseconds per
// call across iters calls.
func timePerCall(iters int, fn func()) float64 {
	fn() // first call sizes pools and sets
	reps := make([]float64, probeReps)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(reps)
}

// probeCore times the write-set and semantic-set primitives every barrier of
// both paper engines is built on, per element of a probeWidth-element set.
func probeCore(m map[string]float64, iters int) {
	vars := core.NewVars(probeWidth, 0)
	ws, ss := core.NewWriteSet(), core.NewSemSet()
	m["core.writeset_put_ns"] = timePerCall(iters, func() {
		ws.Reset()
		for _, v := range vars {
			ws.PutWrite(v, 1)
		}
	}) / probeWidth
	var sink *core.WriteEntry
	m["core.writeset_get_ns"] = timePerCall(iters, func() {
		for _, v := range vars {
			sink = ws.Get(v)
		}
	}) / probeWidth
	_ = sink
	m["core.semset_append_ns"] = timePerCall(iters, func() {
		ss.Reset()
		for _, v := range vars {
			ss.Append(v, core.OpGT, -1)
		}
	}) / probeWidth
}

// probeEngine prices one engine's barriers and commits against an empty
// transaction: a barrier costs a probeWidth-barrier transaction on distinct
// variables, minus the empty one, per barrier (including whatever the barrier
// adds to the commit); the fixed cost of committing a read-only or a writing
// transaction is what a one-barrier transaction costs beyond its barrier.
func probeEngine(m map[string]float64, prefix string, algo stm.Algorithm, iters int) {
	rt := stm.New(algo)
	vars := stm.NewVars(probeWidth, 1)
	tx := func(k int, barrier func(tx *stm.Tx, v *stm.Var)) float64 {
		set := vars[:k]
		return timePerCall(iters, func() {
			rt.Atomically(func(tx *stm.Tx) {
				for _, v := range set {
					barrier(tx, v)
				}
			})
		})
	}
	empty := tx(0, nil)
	price := func(barrier func(tx *stm.Tx, v *stm.Var)) (per, fixed float64) {
		per = (tx(probeWidth, barrier) - empty) / probeWidth
		return per, tx(1, barrier) - empty - per
	}
	m[prefix+".read_ns"], m[prefix+".commit_ro_ns"] = price(func(tx *stm.Tx, v *stm.Var) { tx.Read(v) })
	m[prefix+".cmp_ns"], _ = price(func(tx *stm.Tx, v *stm.Var) { tx.GT(v, 0) })
	m[prefix+".inc_ns"], _ = price(func(tx *stm.Tx, v *stm.Var) { tx.Inc(v, 1) })
	m[prefix+".write_ns"], m[prefix+".commit_rw_ns"] = price(func(tx *stm.Tx, v *stm.Var) { tx.Write(v, 1) })
}

// probeCrossShard prices the two-phase cross-shard commit: the same guarded
// transfer between two cells of one shard and between cells of two shards.
func probeCrossShard(m map[string]float64, algo stm.Algorithm, iters int) {
	rt := stm.NewShardedRuntime(algo, serveShards)
	a, b, c := stm.NewVarOn(0, 1<<40), stm.NewVarOn(0, 0), stm.NewVarOn(1, 0)
	transfer := func(from, to *stm.Var) float64 {
		return timePerCall(iters, func() {
			rt.Atomically(func(tx *stm.Tx) {
				if tx.GTE(from, 1) {
					tx.Inc(from, -1)
					tx.Inc(to, 1)
				}
			})
		})
	}
	single := transfer(a, b)
	m["shard.cross_commit_ns"] = transfer(a, c) - single
}
