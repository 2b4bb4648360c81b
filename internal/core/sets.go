package core

// EntryKind distinguishes the two kinds of write-set entries of the semantic
// algorithms: a standard buffered write and a deferred increment (Section 4:
// "a flag is added to each write-set entry to indicate whether it stores a
// standard write or an increment").
type EntryKind uint8

const (
	// EntryWrite is a buffered write; Val holds the value to store.
	EntryWrite EntryKind = iota
	// EntryInc is a deferred increment; Val holds the accumulated delta to
	// add to the memory content at commit time.
	EntryInc
)

// WriteEntry is one element of a transaction's write-set.
type WriteEntry struct {
	Var  *Var
	Val  int64
	Kind EntryKind
}

// WriteSet is the redo-log of a transaction. It preserves insertion order for
// write-back and offers O(1) lookup for read-after-write handling. The merge
// rules of Algorithm 6 (lines 44–52) are implemented by PutWrite and PutInc:
//
//   - write after write/inc: overwrite the value, set kind to EntryWrite;
//   - inc after write/inc: accumulate the delta, keep the entry's kind.
//
// The representation is built for the barrier hot path, mirroring how native
// STMs filter write-sets with hash signatures:
//
//   - sig is a 64-bit Bloom signature over the IDs of buffered variables.
//     A read barrier whose variable is not covered by the signature — the
//     empty and miss cases, which dominate every workload of Table 3 —
//     skips the lookup entirely with two ALU operations (MayContain).
//   - Up to smallMax entries are indexed by nothing at all: a linear scan of
//     the entry slice beats any hash structure at that size and touches only
//     memory the write-back will touch anyway.
//   - Beyond smallMax, an open-addressed table keyed by Var.ID with linear
//     probing and power-of-two doubling replaces the scan. Unlike the
//     previous map[*Var]int, it performs no runtime map-assign/map-access
//     calls and Reset does not rehash: slots store entry indices, so
//     clearing is one memclr of an int32 slice.
type WriteSet struct {
	entries []WriteEntry
	sig     uint64  // Bloom signature over entry IDs; 0 ⇒ set empty
	table   []int32 // open-addressed index: entry index+1, 0 = free slot
	mask    uint64  // len(table)-1 (table is a power of two)
	shrink  Shrinker
}

// writeSetMinCap is the pre-sized entry capacity of a fresh (or freshly
// clamped) write-set.
const writeSetMinCap = 16

// smallMax is the largest write-set indexed by linear scan alone. Table 3
// puts the median transaction well under 8 distinct written variables, so
// most transactions never build the probe table.
const smallMax = 8

// idMix is the 64-bit Fibonacci multiplier (2^64/φ); multiplying by it mixes
// the low-entropy allocation-order IDs into well-distributed high bits.
const idMix = 0x9E3779B97F4A7C15

// sigMask derives the two Bloom bits for an ID from the top bits of the
// mixed hash. Two probe bits keep the false-positive rate of an 8-entry set
// around (16/64)² ≈ 6% versus 12.5% for a single bit.
func sigMask(id uint64) uint64 {
	h := id * idMix
	return 1<<(h>>58) | 1<<((h>>52)&63)
}

// NewWriteSet returns an empty write-set with some pre-sized capacity.
func NewWriteSet() *WriteSet {
	return &WriteSet{entries: make([]WriteEntry, 0, writeSetMinCap)}
}

// Reset empties the write-set, retaining capacity for reuse across attempts.
// Small transactions (no probe table) reset with two stores; once a table
// exists it is cleared in place (a single memclr) and stays available. The
// retained capacity is subject to the high-water-mark shrink policy
// (Shrinker): after ShrinkAfter consecutive attempts that used a small
// fraction of it, the entry slice and probe table are reallocated near the
// recent peak so one huge transaction cannot pin memory (and per-Reset
// memclr cost) forever.
func (ws *WriteSet) Reset() {
	used := len(ws.entries)
	ws.entries = ws.entries[:0]
	ws.sig = 0
	if ws.table != nil {
		clear(ws.table)
	}
	if peak, ok := ws.shrink.Note(used, cap(ws.entries)); ok {
		ws.clamp(peak)
	}
}

// clamp reallocates the (empty) set's backing memory for about 2×peak
// entries, dropping the probe table entirely when the recent peak fits the
// small-set linear scan.
func (ws *WriteSet) clamp(peak int) {
	ws.entries = make([]WriteEntry, 0, ShrinkCap(peak, writeSetMinCap))
	if ws.table == nil {
		return
	}
	if peak < smallMax {
		ws.table, ws.mask = nil, 0
		return
	}
	n := 4 * smallMax
	for n*3 < 4*ShrinkCap(peak, writeSetMinCap) {
		n *= 2 // keep the clamped table below 3/4 load at 2×peak entries
	}
	ws.table = make([]int32, n)
	ws.mask = uint64(n - 1)
}

// Len reports the number of distinct variables in the write-set.
func (ws *WriteSet) Len() int { return len(ws.entries) }

// MayContain reports whether v can possibly be in the write-set, using only
// the Bloom signature: a false return is definitive, a true return must be
// confirmed by Get. It is the two-ALU-op fast path of every read barrier.
func (ws *WriteSet) MayContain(v *Var) bool {
	m := sigMask(v.id)
	return ws.sig&m == m
}

// find returns the entry index of v, or -1. Callers must have passed the
// signature check; find still returns -1 on Bloom false positives.
func (ws *WriteSet) find(v *Var) int {
	if ws.table == nil {
		for i := range ws.entries {
			if ws.entries[i].Var == v {
				return i
			}
		}
		return -1
	}
	h := v.id * idMix
	for j := (h >> 32) & ws.mask; ; j = (j + 1) & ws.mask {
		slot := ws.table[j]
		if slot == 0 {
			return -1
		}
		if ws.entries[slot-1].Var == v {
			return int(slot - 1)
		}
	}
}

// register indexes the entry about to be appended at len(ws.entries) under
// v's key and folds v into the signature.
func (ws *WriteSet) register(v *Var, m uint64) {
	ws.sig |= m
	idx := len(ws.entries)
	if ws.table == nil {
		if idx < smallMax {
			return // linear scan still covers the set
		}
		ws.grow() // crossing smallMax: build the probe table
	} else if uint64(idx+1)*4 > uint64(len(ws.table))*3 {
		ws.grow() // keep load factor ≤ 3/4
	}
	ws.tableInsert(v.id, int32(idx+1))
}

// grow (re)builds the probe table at double the size (first build: 4× the
// small-set bound, keeping the initial load under 30%).
func (ws *WriteSet) grow() {
	n := 2 * len(ws.table)
	if n == 0 {
		n = 4 * smallMax
	}
	ws.table = make([]int32, n)
	ws.mask = uint64(n - 1)
	for i := range ws.entries {
		ws.tableInsert(ws.entries[i].Var.id, int32(i+1))
	}
}

// tableInsert stores slot at the first free position of id's probe sequence.
func (ws *WriteSet) tableInsert(id uint64, slot int32) {
	h := id * idMix
	for j := (h >> 32) & ws.mask; ; j = (j + 1) & ws.mask {
		if ws.table[j] == 0 {
			ws.table[j] = slot
			return
		}
	}
}

// Get returns a pointer to the entry for v, or nil if v is not in the set.
// The pointer stays valid until the next Put or Reset.
func (ws *WriteSet) Get(v *Var) *WriteEntry {
	if len(ws.entries) == 0 {
		return nil // read-only so far: cheaper than computing the signature
	}
	m := sigMask(v.id)
	if ws.sig&m != m {
		return nil // signature miss: definitely not buffered
	}
	if i := ws.find(v); i >= 0 {
		return &ws.entries[i]
	}
	return nil
}

// PutWrite records a standard write of val to v, overwriting any previous
// entry and marking it as EntryWrite (Algorithm 6 line 51).
func (ws *WriteSet) PutWrite(v *Var, val int64) {
	m := sigMask(v.id)
	if ws.sig&m == m {
		if i := ws.find(v); i >= 0 {
			ws.entries[i].Val = val
			ws.entries[i].Kind = EntryWrite
			return
		}
	}
	ws.register(v, m)
	ws.entries = append(ws.entries, WriteEntry{Var: v, Val: val, Kind: EntryWrite})
}

// PutInc records an increment of v by delta. If an entry already exists the
// delta is accumulated over the entry's value without changing its kind
// (Algorithm 6 line 46); otherwise a fresh EntryInc is created (line 48).
func (ws *WriteSet) PutInc(v *Var, delta int64) {
	m := sigMask(v.id)
	if ws.sig&m == m {
		if i := ws.find(v); i >= 0 {
			ws.entries[i].Val += delta
			return
		}
	}
	ws.register(v, m)
	ws.entries = append(ws.entries, WriteEntry{Var: v, Val: delta, Kind: EntryInc})
}

// Promote rewrites the entry for v as a standard write of total, used when a
// read-after-write finds a pending increment (Algorithm 6 lines 19–21).
func (ws *WriteSet) Promote(v *Var, total int64) {
	i := -1
	if ws.MayContain(v) {
		i = ws.find(v)
	}
	if i < 0 {
		panic("core: Promote on variable not in write-set")
	}
	ws.entries[i].Val = total
	ws.entries[i].Kind = EntryWrite
}

// Entries exposes the ordered entries for write-back. Callers must not
// mutate the returned slice.
func (ws *WriteSet) Entries() []WriteEntry { return ws.entries }

// SemEntry is one element of a semantic read-set (S-NOrec) or compare-set
// (S-TL2): the recorded fact "Var Op Operand held when observed". Plain reads
// are recorded as OpEQ against the observed value. When OperandVar is
// non-nil the fact is the address–address form "*Var Op *OperandVar"
// (_ITM_S2R) and validation re-reads both sides.
type SemEntry struct {
	Var        *Var
	Op         Op // may carry semFlag; mask before evaluating
	Operand    int64
	OperandVar *Var
}

// semFlag marks an entry recorded by a semantic conditional, as opposed to a
// plain read's EQ pin — BrokenReason uses it to classify a failed validation
// as a cmp-flip rather than a read-set invalidation. The flag rides in the
// high bit of the Op byte instead of its own bool field: SemEntry has
// exactly four fields, the compiler's limit for SSA-decomposing a struct,
// and a fifth field would turn every read-set append from four register
// stores into a stack build plus memmove (~50% slower read barrier).
const semFlag Op = 0x80

// Semantic reports whether the entry was recorded by a semantic conditional.
func (e *SemEntry) Semantic() bool { return e.Op&semFlag != 0 }

// Holds re-evaluates the fact against current memory.
func (e *SemEntry) Holds() bool {
	operand := e.Operand
	if e.OperandVar != nil {
		operand = e.OperandVar.Load()
	}
	return (e.Op &^ semFlag).Eval(e.Var.Load(), operand)
}

// SemSet is an append-only log of semantic facts with an in-place validator.
// It never de-duplicates: like the paper, every read appends its own entry.
type SemSet struct {
	entries []SemEntry
	shrink  Shrinker
}

// semSetMinCap is the pre-sized capacity of a fresh (or freshly clamped)
// semantic set.
const semSetMinCap = 32

// NewSemSet returns an empty semantic set with pre-sized capacity.
func NewSemSet() *SemSet {
	return &SemSet{entries: make([]SemEntry, 0, semSetMinCap)}
}

// Reset empties the set, retaining capacity. Retained capacity follows the
// high-water-mark shrink policy (see WriteSet.Reset): the entry log —
// read-sets grow by far the largest of the per-transaction containers — is
// reallocated for about 2×peak facts after ShrinkAfter consecutive small
// attempts.
func (s *SemSet) Reset() {
	used := len(s.entries)
	s.entries = s.entries[:0]
	if peak, ok := s.shrink.Note(used, cap(s.entries)); ok {
		s.entries = make([]SemEntry, 0, ShrinkCap(peak, semSetMinCap))
	}
}

// Len reports the number of recorded facts.
func (s *SemSet) Len() int { return len(s.entries) }

// Empty reports whether no fact has been recorded yet; S-TL2 uses this to
// detect whether it is still in phase 1.
func (s *SemSet) Empty() bool { return len(s.entries) == 0 }

// Append records the fact "v op operand".
func (s *SemSet) Append(v *Var, op Op, operand int64) {
	s.entries = append(s.entries, SemEntry{Var: v, Op: op, Operand: operand})
}

// AppendOutcome records a comparison whose observed outcome was result:
// the operator itself when true, its inverse when false (Algorithm 6
// line 34), so that validation always checks for a true expression.
func (s *SemSet) AppendOutcome(v *Var, op Op, operand int64, result bool) {
	if !result {
		op = op.Inverse()
	}
	s.entries = append(s.entries, SemEntry{Var: v, Op: op | semFlag, Operand: operand})
}

// AppendOutcomeVar records an address–address comparison "*a op *b" whose
// observed outcome was result, storing the inverse operator when false.
func (s *SemSet) AppendOutcomeVar(a *Var, op Op, b *Var, result bool) {
	if !result {
		op = op.Inverse()
	}
	s.entries = append(s.entries, SemEntry{Var: a, Op: op | semFlag, OperandVar: b})
}

// Entries exposes the recorded facts. Callers must not mutate the slice.
func (s *SemSet) Entries() []SemEntry { return s.entries }

// HoldsNow re-evaluates every recorded fact against the current memory
// content and reports whether all still hold. This is the core of semantic
// validation (Algorithm 6 lines 4–6).
func (s *SemSet) HoldsNow() bool {
	for i := range s.entries {
		if !s.entries[i].Holds() {
			return false
		}
	}
	return true
}

// BrokenReason re-validates like HoldsNow and, on failure, classifies the
// first broken entry: ReasonValidation for a plain read's EQ pin,
// ReasonCmpFlip for a recorded semantic fact. ok is true when every fact
// still holds (reason is then meaningless).
func (s *SemSet) BrokenReason() (ok bool, reason Reason) {
	for i := range s.entries {
		if !s.entries[i].Holds() {
			if s.entries[i].Semantic() {
				return false, ReasonCmpFlip
			}
			return false, ReasonValidation
		}
	}
	return true, ReasonUnknown
}
