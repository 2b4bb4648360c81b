package stm_test

// Zero-allocation lifecycle benchmarks: after one warm-up transaction has
// sized the pooled descriptor, the steady-state barrier and commit paths of
// every registered engine must run without touching the heap. check.sh
// enforces this mechanically — `-bench=BenchmarkBarrier -benchtime=5000x
// -benchmem` must report 0 allocs/op for every sub-benchmark — so an
// accidental interface boxing, closure capture, or slice growth on the hot
// path fails the build instead of showing up as GC pauses in a later
// baseline.
//
// Shapes cover the acceptance matrix of the allocation gate: the read, write,
// and inc barriers in isolation (8 disjoint variables each) and the commit of
// a small read-write transaction (2 reads + 2 writes). Engines cover the full
// registry plus an "HTM-fallback" variant configured (capacity 1,
// zero retries) so every transaction capacity-aborts the hardware attempt and
// commits under the irrevocable lock, pinning the abort-unwind and fallback
// paths to zero allocations as well.
//
// Run with:
//
//	go test ./stm -run='^$' -bench=BenchmarkBarrierZeroAlloc -benchtime=5000x -benchmem

import (
	"testing"

	"semstm/stm"
)

// zeroAllocShapes are the transaction bodies of the allocation gate. Each
// takes the variable slice by parameter so the closures passed to Atomically
// capture only non-escaping locals and stay off the heap themselves.
var zeroAllocShapes = []struct {
	name string
	run  func(rt *stm.Runtime, vars []*stm.Var) int64
}{
	{"Read", func(rt *stm.Runtime, vars []*stm.Var) int64 {
		var sink int64
		rt.Atomically(func(tx *stm.Tx) {
			sink = 0
			for _, v := range vars {
				sink += tx.Read(v)
			}
		})
		return sink
	}},
	{"Write", func(rt *stm.Runtime, vars []*stm.Var) int64 {
		rt.Atomically(func(tx *stm.Tx) {
			for j, v := range vars {
				tx.Write(v, int64(j))
			}
		})
		return 0
	}},
	{"Inc", func(rt *stm.Runtime, vars []*stm.Var) int64 {
		rt.Atomically(func(tx *stm.Tx) {
			for _, v := range vars {
				tx.Inc(v, 1)
			}
		})
		return 0
	}},
	{"CommitRW", func(rt *stm.Runtime, vars []*stm.Var) int64 {
		var sink int64
		rt.Atomically(func(tx *stm.Tx) {
			sink = tx.Read(vars[0]) + tx.Read(vars[1])
			tx.Write(vars[2], sink)
			tx.Write(vars[3], sink+1)
		})
		return sink
	}},
}

// BenchmarkBarrierZeroAlloc runs every shape on every registered engine and
// on the forced-fallback HTM variant. One warm-up transaction per
// sub-benchmark populates the descriptor pool and grows the reusable sets to
// their steady-state capacity before the timer starts.
func BenchmarkBarrierZeroAlloc(b *testing.B) {
	type variant struct {
		name  string
		newRT func() *stm.Runtime
	}
	var variants []variant
	for _, a := range stm.Algorithms() {
		variants = append(variants, variant{a.String(), func() *stm.Runtime { return stm.New(a) }})
	}
	variants = append(variants, variant{"HTM-fallback", func() *stm.Runtime {
		rt := stm.New(stm.HTM)
		// Capacity 1 capacity-aborts every hardware attempt; zero retries
		// sends the retry straight to the irrevocable lock fallback.
		rt.ConfigureHTM(1, 0, 0)
		return rt
	}})
	var sink int64
	for _, v := range variants {
		for _, sh := range zeroAllocShapes {
			b.Run(v.name+"/"+sh.name, func(b *testing.B) {
				rt := v.newRT()
				vars := stm.NewVars(8, 1)
				sink += sh.run(rt, vars) // warm-up: size the pooled descriptor
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += sh.run(rt, vars)
				}
			})
		}
	}
	_ = sink
}
