package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteSetMergeRules(t *testing.T) {
	v := NewVar(0)
	ws := NewWriteSet()

	// inc on empty: fresh EntryInc (Algorithm 6 line 48).
	ws.PutInc(v, 3)
	if e := ws.Get(v); e == nil || e.Kind != EntryInc || e.Val != 3 {
		t.Fatalf("after inc: %+v", ws.Get(v))
	}

	// inc after inc: accumulate, keep kind (line 46).
	ws.PutInc(v, 4)
	if e := ws.Get(v); e.Kind != EntryInc || e.Val != 7 {
		t.Fatalf("after inc+inc: %+v", e)
	}

	// write after inc: overwrite, flip kind (line 51).
	ws.PutWrite(v, 100)
	if e := ws.Get(v); e.Kind != EntryWrite || e.Val != 100 {
		t.Fatalf("after write: %+v", e)
	}

	// inc after write: accumulate over the written value, keep EntryWrite
	// (line 46: "without changing the entry's flag").
	ws.PutInc(v, -1)
	if e := ws.Get(v); e.Kind != EntryWrite || e.Val != 99 {
		t.Fatalf("after write+inc: %+v", e)
	}

	// write after write: plain overwrite.
	ws.PutWrite(v, 1)
	if e := ws.Get(v); e.Kind != EntryWrite || e.Val != 1 {
		t.Fatalf("after write+write: %+v", e)
	}

	if ws.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (single variable)", ws.Len())
	}
}

func TestWriteSetPromote(t *testing.T) {
	v := NewVar(0)
	ws := NewWriteSet()
	ws.PutInc(v, 5)
	ws.Promote(v, 12) // memory held 7, delta 5
	e := ws.Get(v)
	if e.Kind != EntryWrite || e.Val != 12 {
		t.Fatalf("after promote: %+v", e)
	}
}

func TestWriteSetPromoteMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWriteSet().Promote(NewVar(0), 1)
}

func TestWriteSetResetReuse(t *testing.T) {
	ws := NewWriteSet()
	vars := NewVars(10, 0)
	for i, v := range vars {
		ws.PutWrite(v, int64(i))
	}
	if ws.Len() != 10 {
		t.Fatalf("Len = %d", ws.Len())
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Fatalf("Len after reset = %d", ws.Len())
	}
	if ws.Get(vars[3]) != nil {
		t.Fatal("stale index entry after reset")
	}
	ws.PutInc(vars[3], 2)
	if e := ws.Get(vars[3]); e == nil || e.Val != 2 || e.Kind != EntryInc {
		t.Fatalf("after reuse: %+v", e)
	}
}

func TestWriteSetOrderPreserved(t *testing.T) {
	ws := NewWriteSet()
	vars := NewVars(5, 0)
	order := []int{2, 0, 4, 1, 3}
	for _, i := range order {
		ws.PutWrite(vars[i], int64(i))
	}
	for j, e := range ws.Entries() {
		if e.Var != vars[order[j]] {
			t.Fatalf("entry %d is var %d, want %d", j, e.Val, order[j])
		}
	}
}

// TestWriteSetModel checks the write-set against a naive model under random
// op sequences: the final entry for each variable must equal the effect of
// replaying writes/incs sequentially, and the kind must be EntryInc iff no
// write ever touched the variable.
func TestWriteSetModel(t *testing.T) {
	type opcode struct {
		VarIdx uint8
		Delta  int64
		Write  bool
	}
	f := func(ops []opcode) bool {
		vars := NewVars(4, 0)
		ws := NewWriteSet()
		type model struct {
			acc     int64
			written bool
			touched bool
		}
		m := make([]model, 4)
		for _, o := range ops {
			i := int(o.VarIdx) % 4
			if o.Write {
				ws.PutWrite(vars[i], o.Delta)
				m[i] = model{acc: o.Delta, written: true, touched: true}
			} else {
				ws.PutInc(vars[i], o.Delta)
				m[i].acc += o.Delta
				m[i].touched = true
			}
		}
		for i, mm := range m {
			e := ws.Get(vars[i])
			if !mm.touched {
				if e != nil {
					return false
				}
				continue
			}
			if e == nil || e.Val != mm.acc {
				return false
			}
			wantKind := EntryInc
			if mm.written {
				wantKind = EntryWrite
			}
			if e.Kind != wantKind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// wsRefModel is a trivially-correct write-set: a map from Var to entry plus
// an insertion-order log, replaying the merge rules of Algorithm 6 directly.
type wsRefModel struct {
	entries map[*Var]*WriteEntry
	order   []*Var
}

func newWSRefModel() *wsRefModel {
	return &wsRefModel{entries: make(map[*Var]*WriteEntry)}
}

func (m *wsRefModel) putWrite(v *Var, val int64) {
	if e, ok := m.entries[v]; ok {
		e.Val, e.Kind = val, EntryWrite
		return
	}
	m.entries[v] = &WriteEntry{Var: v, Val: val, Kind: EntryWrite}
	m.order = append(m.order, v)
}

func (m *wsRefModel) putInc(v *Var, delta int64) {
	if e, ok := m.entries[v]; ok {
		e.Val += delta
		return
	}
	m.entries[v] = &WriteEntry{Var: v, Val: delta, Kind: EntryInc}
	m.order = append(m.order, v)
}

func (m *wsRefModel) promote(v *Var, total int64) bool {
	e, ok := m.entries[v]
	if !ok {
		return false
	}
	e.Val, e.Kind = total, EntryWrite
	return true
}

func (m *wsRefModel) reset() {
	clear(m.entries)
	m.order = m.order[:0]
}

// checkAgainst asserts the write-set matches the model exactly: same entry
// order, kinds, and values, and identical Get outcomes for every variable.
func (m *wsRefModel) checkAgainst(t *testing.T, ws *WriteSet, vars []*Var) {
	t.Helper()
	if ws.Len() != len(m.order) {
		t.Fatalf("Len = %d, model has %d", ws.Len(), len(m.order))
	}
	for i, e := range ws.Entries() {
		want := m.entries[m.order[i]]
		if e.Var != want.Var || e.Val != want.Val || e.Kind != want.Kind {
			t.Fatalf("entry %d = {%v %d %d}, model {%v %d %d}",
				i, e.Var.ID(), e.Val, e.Kind, want.Var.ID(), want.Val, want.Kind)
		}
	}
	for _, v := range vars {
		got := ws.Get(v)
		want, ok := m.entries[v]
		if !ok {
			if got != nil {
				t.Fatalf("Get(%d) = %+v, model says absent", v.ID(), got)
			}
			continue
		}
		if got == nil || got.Val != want.Val || got.Kind != want.Kind {
			t.Fatalf("Get(%d) = %+v, model %+v", v.ID(), got, want)
		}
	}
}

// applyWSScript replays one opcode on both the write-set and the model.
// Opcodes: 0 write, 1 inc, 2 promote (only when present), 3 reset (rare).
func applyWSScript(t *testing.T, ws *WriteSet, m *wsRefModel, vars []*Var, op, varIdx uint8, arg int64) {
	t.Helper()
	v := vars[int(varIdx)%len(vars)]
	switch op % 4 {
	case 0:
		ws.PutWrite(v, arg)
		m.putWrite(v, arg)
	case 1:
		ws.PutInc(v, arg)
		m.putInc(v, arg)
	case 2:
		if m.promote(v, arg) {
			ws.Promote(v, arg)
		}
	case 3:
		// Reset rarely, so sequences still grow past the small-set bound
		// and through table resizes.
		if varIdx%16 == 0 {
			ws.Reset()
			m.reset()
		}
	}
}

// TestWriteSetReferenceModel drives randomized write/inc/promote/reset
// sequences against the map-based reference model. 48 variables over long
// sequences push the set through the small-set scan, the open-addressed
// table build, and at least one probe-table resize, locking the public
// WriteSet behavior (PutWrite/PutInc/Promote/Get/Entries ordering) to the
// pre-overhaul semantics.
func TestWriteSetReferenceModel(t *testing.T) {
	type opcode struct {
		Op, VarIdx uint8
		Arg        int64
	}
	vars := NewVars(48, 0)
	f := func(ops []opcode) bool {
		ws := NewWriteSet()
		m := newWSRefModel()
		for _, o := range ops {
			applyWSScript(t, ws, m, vars, o.Op, o.VarIdx, o.Arg)
		}
		m.checkAgainst(t, ws, vars)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	// One deterministic long sequence reusing a single set across resets, the
	// pooled-descriptor lifecycle (table persists cleared between attempts).
	rng := rand.New(rand.NewSource(7))
	ws := NewWriteSet()
	m := newWSRefModel()
	for round := 0; round < 20; round++ {
		for i := 0; i < 200; i++ {
			applyWSScript(t, ws, m, vars, uint8(rng.Intn(3)), uint8(rng.Intn(256)), rng.Int63n(100)-50)
		}
		m.checkAgainst(t, ws, vars)
		ws.Reset()
		m.reset()
		m.checkAgainst(t, ws, vars)
	}
}

// FuzzWriteSetModel is the fuzz-driven variant of the reference-model check:
// the input bytes are decoded as (op, var, arg) triples and replayed on both
// representations.
func FuzzWriteSetModel(f *testing.F) {
	f.Add([]byte{0, 1, 5, 1, 1, 3, 2, 1, 9})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 24))
	f.Fuzz(func(t *testing.T, script []byte) {
		vars := NewVars(32, 0)
		ws := NewWriteSet()
		m := newWSRefModel()
		for i := 0; i+2 < len(script); i += 3 {
			applyWSScript(t, ws, m, vars, script[i], script[i+1], int64(int8(script[i+2])))
		}
		m.checkAgainst(t, ws, vars)
	})
}

func TestSemSetOutcomeEncoding(t *testing.T) {
	v := NewVar(10)
	s := NewSemSet()
	s.AppendOutcome(v, OpGT, 5, true)   // observed true: store as-is
	s.AppendOutcome(v, OpGT, 50, false) // observed false: store inverse
	e := s.Entries()
	if !e[0].Semantic() || !e[1].Semantic() {
		t.Fatal("outcome facts not marked semantic")
	}
	if op := e[0].Op &^ semFlag; op != OpGT {
		t.Fatalf("true outcome stored as %s", op)
	}
	if op := e[1].Op &^ semFlag; op != OpLTE {
		t.Fatalf("false outcome stored as %s, want <=", op)
	}
	if !s.HoldsNow() {
		t.Fatal("facts should hold against unchanged memory")
	}
}

func TestSemSetHoldsNowDetectsSemanticChange(t *testing.T) {
	v := NewVar(10)
	s := NewSemSet()
	s.AppendOutcome(v, OpGT, 0, true)

	v.StoreNT(3) // still > 0: fact holds although the value changed
	if !s.HoldsNow() {
		t.Fatal("value change that preserves the fact must validate")
	}
	v.StoreNT(-1) // fact broken
	if s.HoldsNow() {
		t.Fatal("sign flip must invalidate the GT fact")
	}
}

func TestSemSetPlainReadIsEQ(t *testing.T) {
	v := NewVar(7)
	s := NewSemSet()
	s.Append(v, OpEQ, 7)
	if !s.HoldsNow() {
		t.Fatal("EQ fact should hold")
	}
	v.StoreNT(8)
	if s.HoldsNow() {
		t.Fatal("any value change must invalidate an EQ fact (value-based validation)")
	}
}

func TestSemSetReset(t *testing.T) {
	s := NewSemSet()
	s.Append(NewVar(1), OpEQ, 1)
	if s.Empty() || s.Len() != 1 {
		t.Fatal("set should be non-empty")
	}
	s.Reset()
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("set should be empty after reset")
	}
	if !s.HoldsNow() {
		t.Fatal("empty set trivially holds")
	}
}

// TestWriteSetMayContain: misses must be definitive, hits conservative.
func TestWriteSetMayContain(t *testing.T) {
	ws := NewWriteSet()
	vars := NewVars(32, 0)
	for i, v := range vars[:16] {
		ws.PutWrite(v, int64(i))
		if !ws.MayContain(v) {
			t.Fatalf("MayContain(%d) false for buffered variable", v.ID())
		}
	}
	for _, v := range vars[16:] {
		if ws.Get(v) != nil {
			t.Fatalf("Get(%d) hit for absent variable", v.ID())
		}
	}
	ws.Reset()
	for _, v := range vars {
		if ws.MayContain(v) {
			t.Fatalf("MayContain(%d) true on empty set", v.ID())
		}
	}
}

// TestSemSetValidationProperty: for random (value, op, operand), recording
// the outcome and then re-evaluating against an unchanged variable always
// validates, and validation of "v op operand" recorded at value a fails
// after storing b iff the boolean outcome differs.
func TestSemSetValidationProperty(t *testing.T) {
	f := func(opRaw uint8, a, b, operand int64) bool {
		op := Op(opRaw % uint8(numOps))
		v := NewVar(a)
		s := NewSemSet()
		s.AppendOutcome(v, op, operand, op.Eval(a, operand))
		if !s.HoldsNow() {
			return false
		}
		v.StoreNT(b)
		stillSame := op.Eval(a, operand) == op.Eval(b, operand)
		return s.HoldsNow() == stillSame
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
