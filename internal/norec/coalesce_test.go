package norec

import (
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// TestCoalescedValidationCatchesLateWrite is the safety regression for
// validation coalescing: a write that lands exactly between a snapshot
// extension (which advanced the valSeq watermark) and the commit must still
// be caught. The watermark must never let the commit-time revalidation skip
// an entry that the late write invalidated.
func TestCoalescedValidationCatchesLateWrite(t *testing.T) {
	g := NewGlobal()
	x, y, z, w := core.NewVar(0), core.NewVar(0), core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	wr := NewTx(g)

	t1.Start()
	if !txtest.Step(t1, func() {
		if t1.Read(x) != 0 {
			t.Fatal("x must read 0")
		}
		t1.Write(w, 1)
	}) {
		t.Fatal("setup step aborted")
	}
	// Unrelated commit moves the lock; t1's next read extends the snapshot
	// with a full walk, advancing the watermark past the start snapshot.
	txtest.MustCommit(wr, func() { wr.Write(z, 1) })
	if !txtest.Step(t1, func() { _ = t1.Read(y) }) {
		t.Fatal("snapshot extension must succeed (x still 0)")
	}
	if t1.valSeq != g.Sequence() {
		t.Fatalf("watermark %d not extended to sequence %d", t1.valSeq, g.Sequence())
	}
	walks := t1.AttemptStats().Validations
	// The late write: lands after the extension, before the commit.
	txtest.MustCommit(wr, func() { wr.Write(x, 7) })
	if txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("commit must abort: x EQ 0 was invalidated after the extension")
	}
	if w.Load() != 0 {
		t.Fatal("aborted writer leaked its write")
	}
	if t1.AttemptStats().Validations == walks {
		t.Fatal("commit-time revalidation was coalesced away")
	}
}

// TestAdoptedCommitSurvivesUnrelatedLateWrite is the liveness counterpart:
// an unrelated write landing between extension and commit costs one clock
// adoption plus one revalidation, not an abort.
func TestAdoptedCommitSurvivesUnrelatedLateWrite(t *testing.T) {
	g := NewGlobal()
	x, z, w := core.NewVar(3), core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	wr := NewTx(g)

	t1.Start()
	if !txtest.Step(t1, func() {
		if !t1.Cmp(x, core.OpGTE, 0) {
			t.Fatal("x >= 0 must hold")
		}
		t1.Write(w, 1)
	}) {
		t.Fatal("setup step aborted")
	}
	txtest.MustCommit(wr, func() { wr.Write(z, 1) })
	if !txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("commit must survive: the late write did not break the fact")
	}
	if w.Load() != 1 {
		t.Fatalf("committed write lost: w = %d", w.Load())
	}
	if a := t1.AttemptStats().ClockAdopts; a != 1 {
		t.Fatalf("ClockAdopts = %d, want exactly 1", a)
	}
}

// TestWatermarkSkipsRedundantWalk drives validate directly: after a full
// walk advanced the watermark, another validate call at the same sequence
// must return without re-walking the read-set.
func TestWatermarkSkipsRedundantWalk(t *testing.T) {
	g := NewGlobal()
	x, z := core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	wr := NewTx(g)

	t1.Start()
	txtest.Step(t1, func() { _ = t1.Read(x) })
	txtest.MustCommit(wr, func() { wr.Write(z, 1) })
	if got := t1.validate(); got != g.Sequence() {
		t.Fatalf("validate returned %d, sequence is %d", got, g.Sequence())
	}
	walks, entries := t1.AttemptStats().Validations, t1.AttemptStats().ValEntries
	if walks == 0 {
		t.Fatal("first validate after a commit must walk")
	}
	for i := 0; i < 3; i++ {
		if got := t1.validate(); got != g.Sequence() {
			t.Fatalf("validate returned %d, sequence is %d", got, g.Sequence())
		}
	}
	if v := t1.AttemptStats().Validations; v != walks {
		t.Fatalf("redundant validates walked the set: %d -> %d passes", walks, v)
	}
	if e := t1.AttemptStats().ValEntries; e != entries {
		t.Fatalf("redundant validates re-checked entries: %d -> %d", entries, e)
	}
	t1.Cleanup()
}

// TestReadOnlyCommitZeroCAS pins the zero-CAS read-only commit: a
// transaction with an empty write-set never touches the sequence lock.
func TestReadOnlyCommitZeroCAS(t *testing.T) {
	g := NewGlobal()
	x := core.NewVar(5)
	for _, semantic := range []bool{false, true} {
		t1 := newTx(g, semantic)
		before := g.Sequence()
		if !txtest.MustCommit(t1, func() {
			_ = t1.Read(x)
			_ = t1.Cmp(x, core.OpGTE, 1)
		}) {
			t.Fatal("read-only transaction must commit")
		}
		if after := g.Sequence(); after != before {
			t.Fatalf("semantic=%v: read-only commit moved the lock %d -> %d",
				semantic, before, after)
		}
	}
}
