package tl2

import (
	"testing"

	"semstm/internal/core"
	"semstm/internal/txtest"
)

// newTx builds an S-TL2 descriptor, or — when semantic is false — the TL2
// baseline: the same descriptor behind core.Baseline, exactly as the stm
// facade binds the registered TL2 engine.
func newTx(g *Global, semantic bool) core.TxImpl {
	if semantic {
		return NewTx(g)
	}
	return core.Baseline{TxImpl: NewTx(g)}
}

func TestCommitVisibility(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(1)
		tx := newTx(g, semantic)
		if !txtest.MustCommit(tx, func() {
			if got := tx.Read(v); got != 1 {
				t.Fatalf("Read = %d", got)
			}
			tx.Write(v, 2)
		}) {
			t.Fatal("solo writer must commit")
		}
		if v.Load() != 2 {
			t.Fatalf("semantic=%v: memory = %d", semantic, v.Load())
		}
	}
}

func TestClockAdvancesPerWriterCommit(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	tx := NewTx(g)
	for i := 0; i < 4; i++ {
		txtest.MustCommit(tx, func() { tx.Write(v, int64(i)) })
	}
	if g.Clock() != 4 {
		t.Fatalf("clock = %d, want 4", g.Clock())
	}
	// Read-only and compare-only transactions never move the clock.
	txtest.MustCommit(tx, func() { _ = tx.Read(v) })
	txtest.MustCommit(tx, func() { _ = tx.Cmp(v, core.OpGTE, 0) })
	if g.Clock() != 4 {
		t.Fatalf("clock moved to %d on read-only commits", g.Clock())
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		v := core.NewVar(1)
		tx := newTx(g, semantic)
		txtest.MustCommit(tx, func() {
			tx.Write(v, 7)
			if got := tx.Read(v); got != 7 {
				t.Fatalf("RAW = %d", got)
			}
			if v.Load() != 1 {
				t.Fatal("write must be buffered")
			}
		})
	}
}

func TestStaleReadAborts(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start() // start version 0
	txtest.MustCommit(t2, func() { t2.Write(v, 9) })
	if txtest.Step(t1, func() { _ = t1.Read(v) }) {
		t.Fatal("classical read of a newer version must abort")
	}
}

// TestPaperAlgorithm1 under S-TL2: the whole scenario happens in phase 1
// (T1 performs no classical read), so the compare-set revalidation extends
// the snapshot and T1 commits; baseline TL2 aborts.
func TestPaperAlgorithm1(t *testing.T) {
	run := func(semantic bool) (committed bool, z *core.Var) {
		g := NewGlobal()
		x, y := core.NewVar(5), core.NewVar(5)
		z = core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		if !txtest.Step(t1, func() {
			if !t1.Cmp(x, core.OpGT, 0) || !t1.Cmp(y, core.OpGT, 0) {
				t.Fatal("conditions must hold initially")
			}
		}) {
			return false, z
		}

		txtest.MustCommit(t2, func() {
			t2.Inc(x, 1)
			t2.Inc(y, -1)
		})

		committed = txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
		return committed, z
	}

	if ok, z := run(true); !ok || z.Load() != 1 {
		t.Errorf("S-TL2 must commit T1 (semantic facts still hold); committed=%v", ok)
	}
	if ok, _ := run(false); ok {
		t.Error("baseline TL2 must abort T1")
	}
}

// TestPhase1SnapshotExtension: a cmp that observes a version beyond the
// start version triggers compare-set revalidation and extends the snapshot.
func TestPhase1SnapshotExtension(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(5), core.NewVar(5)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if sv := t1.StartVersion(); sv != 0 {
		t.Fatalf("start version = %d", sv)
	}
	_ = t1.Cmp(x, core.OpGT, 0)

	txtest.MustCommit(t2, func() { t2.Write(y, 6) }) // clock -> 1

	// Cmp on the freshly written y: version 1 > start version 0, but we are
	// in phase 1 and the compare-set (x>0) still holds, so the snapshot is
	// extended instead of aborting.
	if !txtest.Step(t1, func() {
		if !t1.Cmp(y, core.OpGT, 0) {
			t.Fatal("y > 0 must hold")
		}
	}) {
		t.Fatal("phase-1 cmp must survive via snapshot extension")
	}
	if sv := t1.StartVersion(); sv != 1 {
		t.Fatalf("start version = %d, want extended to 1", sv)
	}
	if !t1.InPhase1() {
		t.Fatal("no classical read was performed; still phase 1")
	}
	if !txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("compare-only transaction must commit")
	}
}

// TestPhase1ExtensionFailsWhenFactBroken: the extension path must abort if
// an earlier fact no longer holds.
func TestPhase1ExtensionFailsWhenFactBroken(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(5), core.NewVar(5)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	_ = t1.Cmp(x, core.OpGT, 0)

	txtest.MustCommit(t2, func() {
		t2.Write(x, -1) // breaks the recorded fact
		t2.Write(y, 6)  // forces version bump on y too
	})

	if txtest.Step(t1, func() { _ = t1.Cmp(y, core.OpGT, 0) }) {
		t.Fatal("revalidation during extension must abort: x > 0 broken")
	}
}

// TestPhase2CmpIsConservative: after the first classical read, a cmp on a
// variable with a newer version aborts even if the fact would hold.
func TestPhase2CmpIsConservative(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(5), core.NewVar(5)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	_ = t1.Read(x) // leaves phase 1
	if t1.InPhase1() {
		t.Fatal("should be phase 2")
	}

	txtest.MustCommit(t2, func() { t2.Write(y, 6) })

	if txtest.Step(t1, func() { _ = t1.Cmp(y, core.OpGT, 0) }) {
		t.Fatal("phase-2 cmp of a newer version must abort (start version frozen)")
	}
}

// TestPaperAlgorithm8 under S-TL2: T1's read of y follows T2's commit, and
// the frozen start version makes the read abort — S-TL2 is more conservative
// than S-NOrec on this history (the history itself is opaque; aborting is
// always safe).
func TestPaperAlgorithm8(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	if !t1.Cmp(x, core.OpGTE, 0) {
		t.Fatal("x >= 0 must hold")
	}
	txtest.MustCommit(t2, func() {
		t2.Write(x, 1)
		t2.Write(y, 1)
	})
	if txtest.Step(t1, func() { _ = t1.Read(y) }) {
		t.Fatal("S-TL2 aborts the read: version > frozen start version")
	}
}

// TestPaperAlgorithm9 under S-TL2: the phase-2 cmp after an invalidating
// commit must abort (non-opaque otherwise).
func TestPaperAlgorithm9(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(0), core.NewVar(0)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	_ = t1.Read(y)
	txtest.MustCommit(t2, func() {
		t2.Write(x, 1)
		t2.Write(y, 1)
	})
	if txtest.Step(t1, func() { _ = t1.Cmp(x, core.OpGTE, 1) }) {
		t.Fatal("S-TL2 must abort the phase-2 cmp")
	}
}

// TestCmpVarsSurvivesDualUpdate: the queue head/tail scenario under S-TL2 —
// both cursors move, the two-address fact holds, phase-1 extension lets the
// transaction commit; baseline TL2 aborts on the pinned reads.
func TestCmpVarsSurvivesDualUpdate(t *testing.T) {
	run := func(semantic bool) bool {
		g := NewGlobal()
		head, tail, z := core.NewVar(2), core.NewVar(5), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		var empty bool
		if !txtest.Step(t1, func() { empty = t1.CmpVars(head, core.OpEQ, tail) }) {
			return false
		}
		if empty {
			t.Fatal("queue should be non-empty")
		}
		txtest.MustCommit(t2, func() {
			t2.Inc(head, 1)
			t2.Inc(tail, 1)
		})
		return txtest.MustCommitRest(t1, func() { t1.Write(z, 1) })
	}
	if !run(true) {
		t.Error("S-TL2 must commit: head != tail still holds")
	}
	if run(false) {
		t.Error("baseline TL2 must abort")
	}
}

// TestCmpVarsPhase1Extension: a two-address comparison touching freshly
// written variables extends the snapshot in phase 1.
func TestCmpVarsPhase1Extension(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(1), core.NewVar(2)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	txtest.MustCommit(t2, func() {
		t2.Write(x, 10)
		t2.Write(y, 20)
	})
	if !txtest.Step(t1, func() {
		if !t1.CmpVars(x, core.OpLT, y) {
			t.Fatal("10 < 20")
		}
	}) {
		t.Fatal("phase-1 two-address cmp must survive via extension")
	}
	if t1.StartVersion() != 1 {
		t.Fatalf("start version = %d, want extended to 1", t1.StartVersion())
	}
	if !txtest.MustCommitRest(t1, func() {}) {
		t.Fatal("compare-only transaction must commit")
	}
}

func TestIncConcurrencyWin(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(100)
	t1 := NewTx(g)
	t2 := NewTx(g)

	t1.Start()
	t1.Inc(v, 1)
	txtest.MustCommit(t2, func() { t2.Write(v, 500) })
	if txtest.Aborted(func() { t1.Commit() }) {
		t1.Cleanup()
		t.Fatal("S-TL2 inc-only transaction must survive a concurrent write")
	}
	if v.Load() != 501 {
		t.Fatalf("final = %d, want 501", v.Load())
	}
}

func TestIncBaselineAborts(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(100)
	t1 := core.Baseline{TxImpl: NewTx(g)}
	t2 := core.Baseline{TxImpl: NewTx(g)}

	t1.Start()
	t1.Inc(v, 1)
	txtest.MustCommit(t2, func() { t2.Write(v, 500) })
	if !txtest.Aborted(func() { t1.Commit() }) {
		t.Fatal("baseline TL2 must abort the read+write expansion")
	}
	t1.Cleanup()
}

// TestWriteSkewSecondCommitterAborts also exercises Cleanup: the aborted
// committer holds orec locks when read-set validation fails, and must
// release them so later transactions can proceed.
func TestWriteSkewSecondCommitterAborts(t *testing.T) {
	for _, semantic := range []bool{false, true} {
		g := NewGlobal()
		x, y := core.NewVar(0), core.NewVar(0)
		t1 := newTx(g, semantic)
		t2 := newTx(g, semantic)

		t1.Start()
		t2.Start()
		_ = t1.Read(x)
		_ = t2.Read(y)
		t1.Write(y, 1)
		t2.Write(x, 1)

		if txtest.Aborted(func() { t1.Commit() }) {
			t.Fatal("first committer must succeed")
		}
		if !txtest.Aborted(func() { t2.Commit() }) {
			t.Fatalf("semantic=%v: write skew must abort second committer", semantic)
		}
		t2.Cleanup()

		// The aborted commit must have released its locks: a fresh
		// transaction can write both variables.
		t3 := newTx(g, semantic)
		if !txtest.MustCommit(t3, func() {
			t3.Write(x, 7)
			t3.Write(y, 7)
		}) {
			t.Fatal("locks leaked by aborted commit")
		}
		if x.Load() != 7 || y.Load() != 7 {
			t.Fatal("post-cleanup writes lost")
		}
	}
}

func TestCompareSetSeparateFromReadSet(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(1), core.NewVar(2)
	tx := NewTx(g)
	txtest.MustCommit(tx, func() {
		_ = tx.Cmp(x, core.OpGT, 0)
		_ = tx.Read(y)
		if tx.CompareSetLen() != 1 || tx.ReadSetLen() != 1 {
			t.Fatalf("compare-set=%d read-set=%d, want 1/1",
				tx.CompareSetLen(), tx.ReadSetLen())
		}
	})
}

func TestDelegationStats(t *testing.T) {
	g := NewGlobal()
	v := core.NewVar(5)
	base := core.Baseline{TxImpl: NewTx(g)}
	txtest.MustCommit(base, func() {
		_ = base.Cmp(v, core.OpGT, 0)
		base.Inc(v, 1)
	})
	bs := base.AttemptStats()
	if bs.Compares != 0 || bs.Incs != 0 || bs.Reads != 2 || bs.Writes != 1 {
		t.Fatalf("baseline delegation counts: %+v", bs)
	}
}

// TestCommitSkipsReadValidationWhenQuiescent: classic TL2 fast path — if no
// other writer committed since the snapshot, read-set validation is skipped
// (and must still be correct).
func TestCommitSkipsReadValidationWhenQuiescent(t *testing.T) {
	g := NewGlobal()
	x, y := core.NewVar(0), core.NewVar(0)
	tx := NewTx(g)
	if !txtest.MustCommit(tx, func() {
		_ = tx.Read(x)
		tx.Write(y, 1)
	}) {
		t.Fatal("quiescent read+write must commit")
	}
	if y.Load() != 1 {
		t.Fatal("write lost")
	}
}

func TestOrecHashStableAndInRange(t *testing.T) {
	g := NewGlobal()
	vs := core.NewVars(1000, 0)
	for _, v := range vs {
		i := g.orecIndexFor(v)
		if i < 0 || i >= len(g.orecs) {
			t.Fatalf("orec index %d out of range", i)
		}
		if j := g.orecIndexFor(v); j != i {
			t.Fatal("orec hash not stable")
		}
	}
}

func TestVersionWordEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 1 << 40} {
		w := versionWord(v)
		if locked(w) {
			t.Fatalf("versionWord(%d) reads as locked", v)
		}
		if version(w) != v {
			t.Fatalf("version(versionWord(%d)) = %d", v, version(w))
		}
		if !locked(w | 1) {
			t.Fatal("lock bit not detected")
		}
		if version(w|1) != v {
			t.Fatal("version not preserved under lock bit")
		}
	}
}
