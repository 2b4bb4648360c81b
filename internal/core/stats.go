package core

import "sync/atomic"

// TxStats accumulates per-attempt operation counts. A transaction attempt
// mutates its TxStats locally (no synchronization) and the runtime folds the
// numbers into a StatsShard on commit or abort. The operation categories are
// exactly those of Table 3 of the paper.
type TxStats struct {
	Reads    uint64 // classical transactional reads
	Writes   uint64 // classical transactional writes
	Compares uint64 // semantic cmp operations
	Incs     uint64 // semantic inc operations
	Promotes uint64 // incs promoted to read+write by a read-after-write

	// Commit-path scalability counters (DESIGN.md §8): how much re-checking
	// and waiting the attempt did, beyond the Table 3 operation mix.
	Validations uint64 // read-set/compare-set validation passes
	ValEntries  uint64 // entries re-checked by those passes
	ClockAdopts uint64 // commit CAS failures resolved by adopting the newer clock
	SpinWaits   uint64 // adaptive-waiter rounds spent on locked metadata

	// Sharded-commit counters (DESIGN.md §11): cross-shard two-phase commits
	// and the ticket-triggered whole-transaction revalidations that keep
	// multi-shard snapshots opaque. Always zero on unsharded runtimes.
	CrossCommits uint64 // commits that ran the two-phase cross-shard path
	CrossRevals  uint64 // ticket-movement revalidations of a live multi-shard snapshot

	// Durable-pipeline counters (DESIGN.md §12): write-ahead-log frames this
	// attempt appended (one per participating shard of a durable commit) and
	// log-write failures it absorbed by degrading to the irrevocable
	// volatile mode. Always zero on volatile runtimes.
	WALAppends  uint64 // WAL frames appended by the attempt's commit
	WALFailures uint64 // log-write failures degraded to ReasonLogFail

	// Progressive-HyTM path counters (DESIGN.md §13): which hardware tier a
	// committed attempt ran on. A commit sets at most one of them; slow-path
	// (software) commits set neither, so fast + middle + slow = Commits.
	// Always zero off the HyTM engines.
	HWFastCommits   uint64 // commits on the uninstrumented hardware fast path
	HWMiddleCommits uint64 // commits on the instrumented hardware middle path
	StickyStarts    uint64 // logical transactions the telemetry ladder started on the middle path
}

// Reset zeroes the per-attempt counters.
func (ts *TxStats) Reset() { *ts = TxStats{} }

// Accumulate adds o's counters into ts. A sharded descriptor folds the
// per-shard sub-descriptors' attempt counters into one TxStats with it.
func (ts *TxStats) Accumulate(o *TxStats) {
	ts.Reads += o.Reads
	ts.Writes += o.Writes
	ts.Compares += o.Compares
	ts.Incs += o.Incs
	ts.Promotes += o.Promotes
	ts.Validations += o.Validations
	ts.ValEntries += o.ValEntries
	ts.ClockAdopts += o.ClockAdopts
	ts.SpinWaits += o.SpinWaits
	ts.CrossCommits += o.CrossCommits
	ts.CrossRevals += o.CrossRevals
	ts.WALAppends += o.WALAppends
	ts.WALFailures += o.WALFailures
	ts.HWFastCommits += o.HWFastCommits
	ts.HWMiddleCommits += o.HWMiddleCommits
	ts.StickyStarts += o.StickyStarts
}

// Counter indices of the aggregate layout: commits and aborts first, then
// the Table 3 operation categories in TxStats order, then the robustness
// counters (irrevocable escalations and per-reason abort counts).
const (
	cCommits = iota
	cAborts
	cReads
	cWrites
	cCompares
	cIncs
	cPromotes
	cValidations
	cValEntries
	cClockAdopts
	cSpinWaits
	cCrossCommits
	cCrossRevals
	cWALAppends
	cWALFailures
	cHWFastCommits
	cHWMiddleCommits
	cStickyStarts
	cEscalations
	cReasonBase
	numCounters = cReasonBase + int(NumReasons)
)

// paddedCounter is one aggregate counter alone on its cache line. Every
// counter is padded uniformly: before sharding, Reads/Writes/Compares/Incs/
// Promotes shared cache lines (only Commits/Aborts were padded), so two
// threads folding different categories still collided.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// StatsShard is one worker's slice of the aggregate counters. Each pooled
// transaction descriptor owns a shard, so in steady state a shard's cache
// lines are written by a single thread and the atomic adds are uncontended —
// this is the fast path; the atomics only arbitrate the rare descriptor
// hand-off through the pool and the Snapshot fold.
type StatsShard struct {
	c [numCounters]paddedCounter
}

// Merge folds one attempt's counters into the shard.
func (sh *StatsShard) Merge(ts *TxStats, committed bool) {
	if committed {
		sh.c[cCommits].n.Add(1)
	} else {
		sh.c[cAborts].n.Add(1)
	}
	if ts.Reads != 0 {
		sh.c[cReads].n.Add(ts.Reads)
	}
	if ts.Writes != 0 {
		sh.c[cWrites].n.Add(ts.Writes)
	}
	if ts.Compares != 0 {
		sh.c[cCompares].n.Add(ts.Compares)
	}
	if ts.Incs != 0 {
		sh.c[cIncs].n.Add(ts.Incs)
	}
	if ts.Promotes != 0 {
		sh.c[cPromotes].n.Add(ts.Promotes)
	}
	if ts.Validations != 0 {
		sh.c[cValidations].n.Add(ts.Validations)
	}
	if ts.ValEntries != 0 {
		sh.c[cValEntries].n.Add(ts.ValEntries)
	}
	if ts.ClockAdopts != 0 {
		sh.c[cClockAdopts].n.Add(ts.ClockAdopts)
	}
	if ts.SpinWaits != 0 {
		sh.c[cSpinWaits].n.Add(ts.SpinWaits)
	}
	if ts.CrossCommits != 0 {
		sh.c[cCrossCommits].n.Add(ts.CrossCommits)
	}
	if ts.CrossRevals != 0 {
		sh.c[cCrossRevals].n.Add(ts.CrossRevals)
	}
	if ts.WALAppends != 0 {
		sh.c[cWALAppends].n.Add(ts.WALAppends)
	}
	if ts.WALFailures != 0 {
		sh.c[cWALFailures].n.Add(ts.WALFailures)
	}
	if ts.HWFastCommits != 0 {
		sh.c[cHWFastCommits].n.Add(ts.HWFastCommits)
	}
	if ts.HWMiddleCommits != 0 {
		sh.c[cHWMiddleCommits].n.Add(ts.HWMiddleCommits)
	}
	if ts.StickyStarts != 0 {
		sh.c[cStickyStarts].n.Add(ts.StickyStarts)
	}
}

// CountAbortReason folds one abort's reason into the per-reason counters
// (the aborted attempt itself is counted by Merge).
func (sh *StatsShard) CountAbortReason(r Reason) {
	if r < NumReasons {
		sh.c[cReasonBase+int(r)].n.Add(1)
	}
}

// CountEscalation records one starvation escalation to irrevocable mode.
func (sh *StatsShard) CountEscalation() {
	sh.c[cEscalations].n.Add(1)
}

// numShards bounds the shard pool of one Stats. Registrations beyond the
// bound wrap around and share (still correct, still mostly uncontended up to
// numShards concurrent workers); the bound keeps the zero-value Stats a
// fixed-size, leak-free structure.
const numShards = 64

// Stats aggregates runtime-wide counters across all threads as a fixed pool
// of cache-line-padded shards. The zero value is ready to use. Workers
// register a shard once (Runtime does this per pooled transaction
// descriptor) and fold into it on every commit/abort; Snapshot folds the
// shards, so the commit path never touches a shared cache line.
type Stats struct {
	next   atomic.Uint64
	shards [numShards]StatsShard
}

// Register hands out the next shard round-robin. Shards may be shared when
// more than numShards workers register; Merge remains correct either way.
func (s *Stats) Register() *StatsShard {
	return &s.shards[(s.next.Add(1)-1)%numShards]
}

// Merge folds one attempt's counters into shard 0 — the compatibility slow
// path for callers without a registered shard (tests, one-shot tools). Hot
// paths use StatsShard.Merge on a registered shard instead.
func (s *Stats) Merge(ts *TxStats, committed bool) { s.shards[0].Merge(ts, committed) }

// Snapshot is a plain-value copy of the aggregate counters.
type Snapshot struct {
	Commits, Aborts                         uint64
	Reads, Writes, Compares, Incs, Promotes uint64
	// Commit-path scalability counters (DESIGN.md §8).
	Validations, ValEntries, ClockAdopts, SpinWaits uint64
	// Sharded-commit counters (DESIGN.md §11): cross-shard two-phase commits
	// and ticket-triggered multi-shard revalidations.
	CrossCommits, CrossRevals uint64
	// Durable-pipeline counters (DESIGN.md §12): WAL frames appended by
	// durable commits and log-write failures degraded to volatile commits.
	WALAppends, WALFailures uint64
	// Progressive-HyTM path counters (DESIGN.md §13): commits that ran on
	// the uninstrumented hardware fast path and on the instrumented hardware
	// middle path (the remainder of Commits ran the software slow path), and
	// logical transactions the telemetry ladder started directly on the
	// middle path because the fast path's recent failure rate disqualified it.
	HWFastCommits, HWMiddleCommits, StickyStarts uint64
	// Escalations counts transactions that, after repeated aborts, completed
	// in the irrevocable serializing mode (the starvation escape hatch).
	Escalations uint64
	// AbortReasons breaks Aborts down by Reason (index with a core Reason
	// value; Reason.String names the buckets).
	AbortReasons [NumReasons]uint64
}

// ReasonCounts returns the non-zero abort-reason buckets keyed by their
// stable string labels, the form the JSON benchmark reports embed.
func (sn Snapshot) ReasonCounts() map[string]uint64 {
	var out map[string]uint64
	for r := Reason(0); r < NumReasons; r++ {
		if n := sn.AbortReasons[r]; n != 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[r.String()] = n
		}
	}
	return out
}

// Snapshot folds all shards into one plain-value copy. It is not atomic
// across counters; callers take snapshots at quiescent points or accept
// small skew.
func (s *Stats) Snapshot() Snapshot {
	var t [numCounters]uint64
	for i := range s.shards {
		for c := range t {
			t[c] += s.shards[i].c[c].n.Load()
		}
	}
	sn := Snapshot{
		Commits:         t[cCommits],
		Aborts:          t[cAborts],
		Reads:           t[cReads],
		Writes:          t[cWrites],
		Compares:        t[cCompares],
		Incs:            t[cIncs],
		Promotes:        t[cPromotes],
		Validations:     t[cValidations],
		ValEntries:      t[cValEntries],
		ClockAdopts:     t[cClockAdopts],
		SpinWaits:       t[cSpinWaits],
		CrossCommits:    t[cCrossCommits],
		CrossRevals:     t[cCrossRevals],
		WALAppends:      t[cWALAppends],
		WALFailures:     t[cWALFailures],
		HWFastCommits:   t[cHWFastCommits],
		HWMiddleCommits: t[cHWMiddleCommits],
		StickyStarts:    t[cStickyStarts],
		Escalations:     t[cEscalations],
	}
	copy(sn.AbortReasons[:], t[cReasonBase:])
	return sn
}

// AbortRate returns aborts / (commits + aborts) as a percentage, the metric
// plotted in the "Aborts %" panels of Figures 1 and 2.
func (sn Snapshot) AbortRate() float64 {
	total := sn.Commits + sn.Aborts
	if total == 0 {
		return 0
	}
	return 100 * float64(sn.Aborts) / float64(total)
}

// Sub returns the difference sn - old, counter by counter, used to scope
// measurements to a benchmark interval.
func (sn Snapshot) Sub(old Snapshot) Snapshot {
	d := Snapshot{
		Commits:         sn.Commits - old.Commits,
		Aborts:          sn.Aborts - old.Aborts,
		Reads:           sn.Reads - old.Reads,
		Writes:          sn.Writes - old.Writes,
		Compares:        sn.Compares - old.Compares,
		Incs:            sn.Incs - old.Incs,
		Promotes:        sn.Promotes - old.Promotes,
		Validations:     sn.Validations - old.Validations,
		ValEntries:      sn.ValEntries - old.ValEntries,
		ClockAdopts:     sn.ClockAdopts - old.ClockAdopts,
		SpinWaits:       sn.SpinWaits - old.SpinWaits,
		CrossCommits:    sn.CrossCommits - old.CrossCommits,
		CrossRevals:     sn.CrossRevals - old.CrossRevals,
		WALAppends:      sn.WALAppends - old.WALAppends,
		WALFailures:     sn.WALFailures - old.WALFailures,
		HWFastCommits:   sn.HWFastCommits - old.HWFastCommits,
		HWMiddleCommits: sn.HWMiddleCommits - old.HWMiddleCommits,
		StickyStarts:    sn.StickyStarts - old.StickyStarts,
		Escalations:     sn.Escalations - old.Escalations,
	}
	for i := range d.AbortReasons {
		d.AbortReasons[i] = sn.AbortReasons[i] - old.AbortReasons[i]
	}
	return d
}
