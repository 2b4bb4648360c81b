// Package htm simulates a best-effort hardware transactional memory with a
// single-global-lock software fallback — the hybrid-TM substrate the paper's
// introduction surveys ([Calciu et al.], [Dalessandro et al., Hybrid NOrec])
// and whose semantic extension the conclusions name as future work.
//
// The simulation captures the three properties of real best-effort HTM that
// matter for algorithm studies:
//
//   - capacity limits: a hardware transaction tracking more than Capacity
//     locations aborts (L1-sized read/write sets);
//   - spurious aborts: a hardware commit fails with probability SpuriousPct
//     even without conflicts (interrupts, TLB misses);
//   - lock subscription: hardware transactions snapshot the fallback lock
//     and cannot commit while a fallback transaction runs.
//
// After MaxHWRetries hardware failures a transaction acquires the fallback
// lock and runs irrevocably. The semantic variant (S-HTM) applies the
// paper's primitives to the hardware path: conditionals become facts and
// increments defer, shrinking the tracked set — which, under capacity
// limits, also means *fewer capacity aborts*, an effect unique to HTM.
//
// Every instrumented hardware path here — classic Tx, and HyTx's middle and
// slow paths — runs on the S-NOrec seqlock barrier kernel (norec.Tx) and
// adds only policy through its hooks (DESIGN.md §5): the capacity bound,
// typed hardware-failure accounting and demotion, spurious commit failure,
// the irrevocable lock fallback, and (HyTx) write-record stamping. Only
// HyTx's uninstrumented fast path (fast.go) has barriers of its own.
package htm

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"semstm/internal/core"
	"semstm/internal/norec"
)

// Tuning defaults.
const (
	// DefaultCapacity bounds the tracked locations of one hardware attempt.
	DefaultCapacity = 64
	// DefaultMaxHWRetries is how many hardware failures precede fallback.
	DefaultMaxHWRetries = 4
	// DefaultSpuriousPct is the per-commit spurious failure probability (%).
	DefaultSpuriousPct = 0.5
)

// Write-record ring geometry (progressive engine only, DESIGN.md §13).
//
// Every committed writer stamps its write-set into the ring slot of its
// commit epoch before releasing the sequence lock. That is the simulation of
// hardware conflict detection: real HTM aborts a speculating transaction only
// when a cache line it touched is invalidated, not whenever *any* core
// commits. The uninstrumented fast path keeps a local read signature (two
// bits per first-touch, no read-set) and, when the epoch moves, tests each
// recorded write of the intervening commits for Bloom *membership* in that
// signature — all-misses means the moved epoch can be adopted and the attempt
// survives. Membership (both bits set) rather than signature intersection
// (any bit shared) is deliberate: write-sets here are a handful of locations,
// and an intersection test's false-positive rate is per *bit* — at a
// 100-location read footprint it would fire on several percent of disjoint
// commits, drowning the true conflict rate — while membership of an exact
// write record is per *location*, (2n/m)^2 ~ 0.1% at the same density. The
// false positives that remain are indistinguishable from the false sharing of
// a line-granular conflict detector: a safe, spurious-looking hardware abort.
const (
	// sigWords x 64 = 4096 read-signature bits, sized for the simulated
	// capacity bound: a fast-path attempt may track up to Capacity locations
	// at two bits each while keeping the membership false-positive rate per
	// recorded write around 0.1% (the sizing argument signature-based STMs
	// make for their filters, adapted to membership tests).
	sigWords = 64
	sigBits  = sigWords * 64
	// sigCap is the largest write-set recorded exactly; a wider commit (or
	// an irrevocable fallback, whose in-place writes were never buffered)
	// stamps sigWide instead, which every behind-the-epoch fast attempt
	// treats as a certain conflict.
	sigCap  = 64
	sigWide = ^uint64(0)
	// sigSlots is the ring depth in epochs. A reader that has fallen more
	// than sigMaxLag epochs behind can no longer prove its slots were not
	// recycled and must abort conservatively — the simulated analogue of a
	// hardware transaction outliving its speculation resources.
	sigSlots  = 256
	sigMaxLag = sigSlots - 1
	// sigIDMix is the Fibonacci multiplier hashing variable identities into
	// bit positions (same constant the core sets use for their filters).
	sigIDMix = 0x9E3779B97F4A7C15
)

// sigBitsFor returns the two Bloom bit positions for a variable identity.
func sigBitsFor(id uint64) (uint64, uint64) {
	h := id * sigIDMix
	return h >> 52, (h >> 40) & (sigBits - 1) // top 12 bits, next 12 bits
}

// Global is the state shared by all transactions of one HTM runtime: the
// kernel's timestamped sequence lock, serving both as the commit serializer
// of hardware transactions and as the fallback lock they subscribe to (it
// sits alone on its cache line, see norec.Global), plus the hardware
// tallies, which are bumped on the failure paths only.
type Global struct {
	norec.Global
	fallbacks atomic.Uint64
	hwAborts  atomic.Uint64

	// sigs is the per-epoch write-record ring of the progressive engine:
	// slot (epoch>>1) & (sigSlots-1) holds the write-set of the commit that
	// released the sequence lock at that (even) epoch. Word 0 of a slot is
	// the record length (or sigWide for an unknown write-set); words 1..n
	// are the written variable identities, exact — a typical commit writes
	// a handful of locations, so both stamping and scanning touch a few
	// words. Entries past the length are stale leftovers from the slot's
	// previous occupant and are never read. Stamped while the lock is held,
	// so slot stores never race each other; readers guard against mid-scan
	// recycling by re-checking the lock after the scan. Classic
	// (non-progressive) transactions never consult it.
	sigs [sigSlots][1 + sigCap]atomic.Uint64

	// privatizing counts in-flight privatizing commits. While non-zero the
	// progressive engine demotes new fast-path attempts to the instrumented
	// middle path: the uninstrumented fast path publishes no snapshot and
	// cannot be drained, so it must sit out the barrier window.
	privatizing atomic.Int64
}

// NewGlobal returns a fresh runtime state.
func NewGlobal() *Global { return &Global{} }

// Fallbacks reports how many transactions took the software fallback.
func (g *Global) Fallbacks() uint64 { return g.fallbacks.Load() }

// HWAborts reports how many hardware attempts failed (conflict, capacity,
// or spurious).
func (g *Global) HWAborts() uint64 { return g.hwAborts.Load() }

// Quiescent verifies the fallback/sequence lock is not leaked: at a
// quiescent point it must be even (no irrevocable transaction running).
func (g *Global) Quiescent() error {
	if s := g.Seq.Load(); s&1 != 0 {
		return fmt.Errorf("htm: fallback lock leaked (seq=%d)", s)
	}
	return nil
}

// stampSig records the write-set of the commit that will release the
// sequence lock at the (even) value release — the progressive engine's
// Stamp hook. Called with the lock held: the slot overwrite cannot race
// another stamp, and the release store that makes the epoch observable
// happens after, so any reader that sees the new epoch also sees its record.
// A nil ws is an irrevocable fallback that wrote in place: its write-set is
// unknown, so every concurrent fast attempt that read anything must
// conservatively abort.
func (g *Global) stampSig(release uint64, ws *core.WriteSet) {
	slot := &g.sigs[(release>>1)&(sigSlots-1)]
	if ws == nil || ws.Len() > sigCap {
		slot[0].Store(sigWide)
		return
	}
	es := ws.Entries()
	for i, e := range es {
		slot[1+i].Store(e.Var.ID())
	}
	slot[0].Store(uint64(len(es)))
}

// Tx is one classic hybrid transaction descriptor: the seqlock kernel as the
// hardware path, with the capacity bound, hardware-failure accounting and
// spurious commit failures as its hooks, and the irrevocable fallback once
// MaxHWRetries hardware failures are spent.
type Tx struct {
	*norec.Tx
	g   *Global
	rng *rand.Rand

	// Tunables, set before first use. A Capacity <= 0 fits nothing: every
	// hardware attempt that touches a location fails with a capacity abort.
	Capacity     int
	MaxHWRetries int
	SpuriousPct  float64

	hwFailures int
}

// NewTx returns an S-HTM descriptor bound to g (classic HTM is the same
// descriptor behind the facade's core.Baseline delegation).
func NewTx(g *Global, seed int64) *Tx {
	tx := &Tx{
		Tx:           norec.NewTx(&g.Global),
		g:            g,
		rng:          rand.New(rand.NewSource(seed)),
		Capacity:     DefaultCapacity,
		MaxHWRetries: DefaultMaxHWRetries,
		SpuriousPct:  DefaultSpuriousPct,
	}
	tx.Hooks.Fail = tx.abortHW
	tx.Hooks.PreCommit = tx.spurious
	return tx
}

// NewEpoch begins a new logical transaction: the hardware-failure budget
// resets. The runtime calls it once per Atomically invocation.
func (tx *Tx) NewEpoch() { tx.hwFailures = 0 }

// Start begins an attempt: hardware speculation while the failure budget
// lasts, otherwise the irrevocable fallback under the global lock (hardware
// commits are blocked meanwhile).
func (tx *Tx) Start() {
	if tx.hwFailures > tx.MaxHWRetries {
		tx.StartIrrevocable()
		tx.g.fallbacks.Add(1)
		return
	}
	tx.Hooks.Capacity = hwBound(tx.Capacity)
	tx.Tx.Start()
}

// hwBound maps a hardware Capacity onto the kernel's Capacity hook, which
// reads zero as unbounded: a capacity of zero or below tracks nothing, so it
// becomes a negative bound that the first tracked barrier exceeds.
func hwBound(capacity int) int {
	if capacity <= 0 {
		return -1
	}
	return capacity
}

// abortHW is the Fail hook: every failure of a hardware attempt — conflict,
// capacity, or an injected fault — counts against the budget, so
// MaxHWRetries of them drive the transaction into the lock fallback.
func (tx *Tx) abortHW(reason core.Reason) {
	tx.hwFailures++
	tx.g.hwAborts.Add(1)
	core.AbortWith(reason)
}

// spurious is the PreCommit hook: a hardware commit fails with probability
// SpuriousPct even without conflicts (interrupts, TLB misses).
func (tx *Tx) spurious() {
	if tx.SpuriousPct > 0 && tx.rng.Float64()*100 < tx.SpuriousPct {
		tx.abortHW(core.ReasonSpurious)
	}
}

// CommitPrivatize is Commit with privatization-barrier semantics
// (core.Privatizer): the commit is bracketed by the privatizing counter so
// the progressive engine's uninstrumented fast path sits out the window, and
// after linearization every reader subscribed to a pre-commit snapshot is
// waited out. An abort unwinds like Commit and performs no drain.
func (tx *Tx) CommitPrivatize() {
	tx.g.privatizing.Add(1)
	defer tx.g.privatizing.Add(-1)
	tx.Commit()
	tx.Tx.PrivatizeBarrier()
}

// PrivatizeBarrier re-runs the drain of the last successful Commit.
func (tx *Tx) PrivatizeBarrier() {
	tx.g.privatizing.Add(1)
	defer tx.g.privatizing.Add(-1)
	tx.Tx.PrivatizeBarrier()
}
