package core

import "testing"

// The shrink tests are white-box on purpose: "memory actually released" means
// the backing arrays were reallocated smaller, which only cap() and len() of
// the internal slices can witness.

func TestShrinkerPolicy(t *testing.T) {
	var s Shrinker
	// Capacities at or below the exemption floor never arm the policy.
	for i := 0; i < 10*ShrinkAfter; i++ {
		if _, ok := s.Note(1, shrinkMinCap); ok {
			t.Fatal("shrank a container at the exemption floor")
		}
	}
	// Well-used capacity (usage ≥ cap/shrinkSlack) keeps the window disarmed.
	for i := 0; i < 10*ShrinkAfter; i++ {
		if _, ok := s.Note(256, 1024); ok {
			t.Fatal("shrank a rightsized container")
		}
	}
	// ShrinkAfter consecutive small attempts trigger, reporting the peak.
	for i := 0; i < ShrinkAfter-2; i++ {
		if _, ok := s.Note(10, 1024); ok {
			t.Fatalf("shrank after %d attempts, want %d", i+1, ShrinkAfter)
		}
	}
	if _, ok := s.Note(30, 1024); ok { // the window's high-water mark
		t.Fatalf("shrank after %d attempts, want %d", ShrinkAfter-1, ShrinkAfter)
	}
	if peak, ok := s.Note(10, 1024); !ok || peak != 30 {
		t.Fatalf("Note = (%d, %v), want the window peak (30, true)", peak, ok)
	}
	// A decision resets the window: the very next small attempt starts at 1.
	if _, ok := s.Note(10, 1024); ok {
		t.Fatal("window not reset after a shrink decision")
	}
}

func TestShrinkerWindowResetsOnBigAttempt(t *testing.T) {
	var s Shrinker
	for i := 0; i < ShrinkAfter-1; i++ {
		if _, ok := s.Note(10, 1024); ok {
			t.Fatal("premature shrink")
		}
	}
	s.Note(512, 1024) // big attempt: usage*slack ≥ cap — disarms the window
	for i := 0; i < ShrinkAfter-1; i++ {
		if _, ok := s.Note(10, 1024); ok {
			t.Fatalf("shrank %d attempts after a big one, want %d", i+1, ShrinkAfter)
		}
	}
	if _, ok := s.Note(10, 1024); !ok {
		t.Fatal("no shrink after a full fresh window of small attempts")
	}
}

// fillWS puts n distinct entries into ws.
func fillWS(ws *WriteSet, vars []*Var, n int) {
	for i := 0; i < n; i++ {
		ws.PutWrite(vars[i], int64(i))
	}
}

func TestWriteSetShrinkReleasesMemory(t *testing.T) {
	vars := NewVars(600, 0)
	ws := NewWriteSet()
	fillWS(ws, vars, 600) // one pathological transaction
	bigCap, bigTable := cap(ws.entries), len(ws.table)
	if bigCap < 600 || bigTable == 0 {
		t.Fatalf("setup: cap=%d table=%d, want a grown set", bigCap, bigTable)
	}
	ws.Reset() // big usage: window stays disarmed
	for i := 0; i < ShrinkAfter; i++ {
		if got := cap(ws.entries); got != bigCap {
			t.Fatalf("attempt %d: cap=%d, clamped before window filled (want %d)", i, got, bigCap)
		}
		fillWS(ws, vars, 4)
		ws.Reset()
	}
	if got, want := cap(ws.entries), ShrinkCap(4, writeSetMinCap); got != want {
		t.Errorf("entries cap after clamp = %d, want %d (was %d)", got, want, bigCap)
	}
	if ws.table != nil {
		t.Errorf("probe table retained (%d slots) for a peak below smallMax", len(ws.table))
	}
	// The clamped set still works, including re-growing past smallMax.
	fillWS(ws, vars, 100)
	for i := 0; i < 100; i++ {
		if e := ws.Get(vars[i]); e == nil || e.Val != int64(i) {
			t.Fatalf("post-clamp lookup of entry %d failed", i)
		}
	}
}

func TestWriteSetShrinkKeepsTableForLargePeak(t *testing.T) {
	vars := NewVars(600, 0)
	ws := NewWriteSet()
	fillWS(ws, vars, 600)
	bigTable := len(ws.table)
	ws.Reset()
	for i := 0; i < ShrinkAfter; i++ {
		fillWS(ws, vars, 16) // peak above smallMax: the table must survive
		ws.Reset()
	}
	if ws.table == nil {
		t.Fatal("probe table dropped for a peak above smallMax")
	}
	if len(ws.table) >= bigTable {
		t.Errorf("probe table not shrunk: %d slots, had %d", len(ws.table), bigTable)
	}
	if got, want := cap(ws.entries), ShrinkCap(16, writeSetMinCap); got != want {
		t.Errorf("entries cap after clamp = %d, want %d", got, want)
	}
	fillWS(ws, vars, 16)
	for i := 0; i < 16; i++ {
		if e := ws.Get(vars[i]); e == nil || e.Val != int64(i) {
			t.Fatalf("post-clamp lookup of entry %d failed", i)
		}
	}
}

func TestSemSetShrinkReleasesMemoryAndEqTable(t *testing.T) {
	vars := NewVars(600, 0)
	s := NewSemSet()
	for i, v := range vars {
		s.Append(v, OpEQ, int64(i))
	}
	bigCap := cap(s.entries)
	if bigCap < 600 {
		t.Fatalf("setup: cap=%d, want a grown set", bigCap)
	}
	s.Reset()
	for i := 0; i < ShrinkAfter; i++ {
		for j := 0; j < 4; j++ {
			s.Append(vars[j], OpEQ, int64(j))
		}
		s.Reset()
	}
	if got, want := cap(s.entries), ShrinkCap(4, semSetMinCap); got != want {
		t.Errorf("entries cap after clamp = %d, want %d (was %d)", got, want, bigCap)
	}
}

func TestExprSetShrinkReleasesMemory(t *testing.T) {
	vars := NewVars(4, 0)
	s := NewExprSet()
	for i := 0; i < 300; i++ {
		s.AppendSum(vars, OpEQ, 0, true)
	}
	bigCap := cap(s.entries)
	if bigCap < 300 {
		t.Fatalf("setup: cap=%d, want ≥ 300", bigCap)
	}
	s.Reset()
	for i := 0; i < ShrinkAfter; i++ {
		s.AppendSum(vars, OpEQ, 0, true)
		s.Reset()
	}
	if got, want := cap(s.entries), ShrinkCap(1, exprSetMinCap); got != want {
		t.Errorf("entries cap after clamp = %d, want %d (was %d)", got, want, bigCap)
	}
	s.AppendSum(vars, OpEQ, 0, true)
	if !s.HoldsNow() {
		t.Error("recycled entry mis-evaluated after clamp")
	}
}
