package shard

// Unit tests of the composite engine's construction surface: which
// descriptors can be sharded at all, how irrevocable engines degenerate, and
// that an idle partition is quiescent.

import (
	"testing"

	"semstm/internal/core"
	_ "semstm/internal/htm"   // register the HTM descriptors
	_ "semstm/internal/norec" // register the NOrec descriptors
	_ "semstm/internal/sgl"   // register the SGL descriptor
)

// desc fetches a registered engine descriptor by ID.
func desc(t *testing.T, id core.EngineID) core.EngineDesc {
	t.Helper()
	d, ok := core.EngineFor(id)
	if !ok {
		t.Fatalf("engine %d not registered", id)
	}
	return d
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestNewEngineRejectsUnshardable pins the constructor contract: shard counts
// below 1 and engines with neither a two-phase commit nor irrevocability have
// no sound sharded composition.
func TestNewEngineRejectsUnshardable(t *testing.T) {
	mustPanic(t, "NewEngine(NOrec, 0)", func() { NewEngine(desc(t, core.EngineNOrec), 0) })
	// Classic HTM is revocable but has no TwoPhase decomposition — no way to
	// hold phase-1 locks across instances, so it cannot be sharded.
	mustPanic(t, "NewEngine(HTM, 2)", func() { NewEngine(desc(t, core.EngineHTM), 2) })
}

// TestIrrevocableDegeneratesToOneInstance asserts the SGL rule: an
// irrevocable engine reports the requested width but is backed by a single
// serializing instance, and every commit folds into shard 0's counters.
func TestIrrevocableDegeneratesToOneInstance(t *testing.T) {
	e := NewEngine(desc(t, core.EngineSGL), 4)
	if e.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want the requested 4", e.NumShards())
	}
	if e.eff != 1 {
		t.Fatalf("eff = %d, want 1 (single serializing instance)", e.eff)
	}
	vs := []*core.Var{core.NewVarOn(0, 0), core.NewVarOn(3, 0)}
	tx := e.NewTx(core.TxConfig{})
	tx.Start()
	for _, v := range vs {
		tx.Write(v, 7)
	}
	tx.Commit()
	snaps := e.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("Snapshots len = %d, want 4", len(snaps))
	}
	// Both variables folded onto the one instance: a single-"shard" commit on
	// entry 0, nothing cross, nothing elsewhere.
	if snaps[0].SingleCommits != 1 || snaps[0].CrossCommits != 0 {
		t.Fatalf("entry 0 = %+v, want one single-shard commit", snaps[0])
	}
	for s := 1; s < 4; s++ {
		if snaps[s] != (ShardSnapshot{}) {
			t.Fatalf("entry %d = %+v, want zero (all traffic folds to entry 0)", s, snaps[s])
		}
	}
	if e.Ticket() != 0 {
		t.Fatalf("ticket = %d on an irrevocable partition", e.Ticket())
	}
	if err := e.Quiescent(); err != nil {
		t.Fatalf("not quiescent after a committed transaction: %v", err)
	}
}

// TestQuiescentCoversEveryShard verifies the idle partition is quiescent and
// that a committed cross-shard transaction leaves it so again.
func TestQuiescentCoversEveryShard(t *testing.T) {
	e := NewEngine(desc(t, core.EngineNOrec), 3)
	if err := e.Quiescent(); err != nil {
		t.Fatalf("fresh partition not quiescent: %v", err)
	}
	a, b := core.NewVarOn(0, 1), core.NewVarOn(2, 2)
	tx := e.NewTx(core.TxConfig{})
	tx.Start()
	tx.Write(a, 10)
	tx.Write(b, 20)
	tx.Commit()
	if a.Load() != 10 || b.Load() != 20 {
		t.Fatalf("cross-shard commit lost writes: a=%d b=%d", a.Load(), b.Load())
	}
	if e.Ticket() != 1 {
		t.Fatalf("ticket = %d after one cross-shard commit, want 1", e.Ticket())
	}
	if err := e.Quiescent(); err != nil {
		t.Fatalf("not quiescent after cross-shard commit: %v", err)
	}
}
