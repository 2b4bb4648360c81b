//go:build !race

// The race detector instruments every memory access with heap-allocated
// shadow state, so AllocsPerRun can never reach zero under -race; the
// zero-allocation contract is asserted in regular test runs only (the race
// configuration still runs the pool-poisoning fuzz over the same paths).

package stm_test

import (
	"context"
	"runtime"
	"testing"

	"semstm/stm"
)

// zeroAllocEngines is the acceptance matrix of ISSUE 5: every fixed engine
// family plus the adaptive composite must run the transaction lifecycle
// allocation-free after warm-up.
var zeroAllocEngines = []stm.Algorithm{
	stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2,
	stm.SGL, stm.HTM, stm.SHTM, stm.Adaptive,
	stm.HyTM, stm.HyTMMid,
}

// assertZeroAllocs runs fn once to warm the descriptor pool, settles the
// heap, and then requires testing.AllocsPerRun to report exactly zero.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	fn() // warm-up: populate the pool, grow the reusable sets
	runtime.GC()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s: %.2f allocs/op after warm-up, want 0", name, n)
	}
}

// TestZeroAllocLifecycle pins the steady-state allocation count of all three
// public entry points — Atomically, TryAtomically, AtomicallyCtx — at zero on
// every engine, for a small read-write transaction (2 reads, 2 writes).
func TestZeroAllocLifecycle(t *testing.T) {
	for _, algo := range zeroAllocEngines {
		t.Run(algo.String(), func(t *testing.T) {
			rt := stm.New(algo)
			vars := stm.NewVars(8, 1)
			body := func(tx *stm.Tx) {
				s := tx.Read(vars[0]) + tx.Read(vars[1])
				tx.Write(vars[2], s)
				tx.Write(vars[3], s+1)
			}
			assertZeroAllocs(t, "Atomically", func() { rt.Atomically(body) })
			assertZeroAllocs(t, "TryAtomically", func() {
				if err := rt.TryAtomically(body); err != nil {
					t.Fatalf("TryAtomically: %v", err)
				}
			})
			ctx := context.Background()
			assertZeroAllocs(t, "AtomicallyCtx", func() {
				if err := rt.AtomicallyCtx(ctx, body); err != nil {
					t.Fatalf("AtomicallyCtx: %v", err)
				}
			})
		})
	}
}

// TestZeroAllocFallbackHTM pins the forced-fallback HTM configuration: the
// capacity abort, the unwind through the pre-boxed abort signal, and the
// irrevocable lock commit must all stay off the heap too.
func TestZeroAllocFallbackHTM(t *testing.T) {
	rt := stm.New(stm.HTM)
	rt.ConfigureHTM(1, 0, 0)
	vars := stm.NewVars(8, 1)
	assertZeroAllocs(t, "fallback", func() {
		rt.Atomically(func(tx *stm.Tx) {
			tx.Write(vars[0], tx.Read(vars[1])+1)
		})
	})
}
