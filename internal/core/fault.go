package core

import (
	"sync/atomic"
	"time"
)

// FaultSite identifies an instrumentation point inside the algorithm
// backends where a FaultPlan may inject a fault. Every backend consults the
// plan (when one is armed) at its Start, Read, Cmp, and Commit paths, plus
// inside its validation routines via ValidationFail.
type FaultSite uint8

const (
	// SiteStart is the beginning of an attempt.
	SiteStart FaultSite = iota
	// SiteRead is the classical read barrier.
	SiteRead
	// SiteCmp is the semantic compare barrier.
	SiteCmp
	// SiteCommit is the commit path, before publication.
	SiteCommit
	// NumFaultSites bounds the enum.
	NumFaultSites
)

// CrashSite identifies a crash-injection point on the durable commit
// pipeline (internal/wal and the sharded commit that drives it). Unlike the
// probabilistic FaultSites, a crash fires deterministically on the Nth
// consult of its site (WithCrash) and simulates process death: the write-
// ahead log freezes its on-disk state exactly as a dying process would leave
// it, and the attempt unwinds with the crash sentinel (CrashPanic) instead
// of the retryable abort signal.
type CrashSite uint8

const (
	// CrashPreFsync crashes after the commit records were written but before
	// the fsync: everything since the last completed fsync is lost, the
	// worst case the interval and none policies admit.
	CrashPreFsync CrashSite = iota
	// CrashTornWrite crashes midway through writing a commit record: a
	// prefix of the record reaches the disk (and is even fsynced), leaving a
	// torn tail that recovery must detect by CRC and truncate.
	CrashTornWrite
	// CrashPostFsyncPrePublish crashes after the commit records are durable
	// but before the in-memory publish (for cross-shard commits: before the
	// ticket advance). Recovery must replay the fully-logged transaction —
	// it validated with every lock held, so applying it is a legal serial
	// extension — and the observable state must be exactly all-or-nothing.
	CrashPostFsyncPrePublish
	// NumCrashSites bounds the enum.
	NumCrashSites
)

// String returns a short stable label for the crash site.
func (s CrashSite) String() string {
	switch s {
	case CrashPreFsync:
		return "pre-fsync"
	case CrashTornWrite:
		return "torn-write"
	case CrashPostFsyncPrePublish:
		return "post-fsync-pre-publish"
	default:
		return "invalid"
	}
}

// The observation-counter index space: the per-barrier fault sites, then the
// validation and commit-delay streams, then the crash sites.
const (
	obsValidation  = int(NumFaultSites)
	obsCommitDelay = obsValidation + 1
	obsCrashBase   = obsCommitDelay + 1
	numObsSites    = obsCrashBase + int(NumCrashSites)
)

// FaultSiteNames lists the stable label of every injection point a FaultPlan
// instruments — the barrier fault sites, the validation and commit-delay
// streams, and the crash sites — in observation-counter order. The
// site-exhaustiveness test asserts each one is consulted by at least one
// suite, so dead injection points are caught as the site list grows.
func FaultSiteNames() []string {
	return []string{
		"start", "read", "cmp", "commit",
		"validation", "commit-delay",
		"crash:" + CrashPreFsync.String(),
		"crash:" + CrashTornWrite.String(),
		"crash:" + CrashPostFsyncPrePublish.String(),
	}
}

// FaultPlan deterministically injects faults into the algorithm backends: at
// each instrumented site it may raise a spurious abort, force a validation
// failure, or stretch the commit window with a delay. All decisions derive
// from one seed through a counter-keyed splitmix64 stream, so a
// single-threaded run replays identically and a concurrent run is
// statistically reproducible. The zero probability everywhere means the plan
// never fires; a nil *FaultPlan (the default — backends keep a nil pointer
// and branch around the call) costs exactly one pointer test per barrier.
//
// Configure before the runtime is shared:
//
//	plan := core.NewFaultPlan(42).
//		WithSpurious(core.SiteRead, 10).
//		WithValidationFail(5).
//		WithCommitDelay(20, 50*time.Microsecond)
//
// On durable runtimes the plan additionally drives crash injection
// (WithCrash): the Nth consult of the armed crash site simulates process
// death on the write-ahead log.
//
// FaultPlan methods are safe for concurrent use.
type FaultPlan struct {
	seed     uint64
	ctr      atomic.Uint64
	spurious [NumFaultSites]uint64 // 32-bit thresholds: P(hit) = t / 2^32
	valFail  uint64
	delayHit uint64
	delay    time.Duration

	// Crash injection: the armed site, a countdown of consults before it
	// fires (deterministic, not probabilistic — a crash must land on one
	// reproducible commit), and the latched crashed flag.
	crashArmed bool
	crashSite  CrashSite
	crashLeft  atomic.Int64
	crashed    atomic.Bool

	// seen counts how many times each instrumented site consulted the plan
	// (whether or not anything fired); the site-exhaustiveness test reads it
	// to prove every registered injection point is reachable.
	seen [numObsSites]atomic.Uint64
}

// NewFaultPlan returns an inert plan (no injection anywhere) rooted at seed.
func NewFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{seed: seed}
}

// threshold converts a percentage into a 32-bit comparison threshold.
func threshold(pct float64) uint64 {
	if pct <= 0 {
		return 0
	}
	if pct >= 100 {
		return 1 << 32
	}
	return uint64(pct / 100 * (1 << 32))
}

// WithSpurious arms spurious-abort injection at the given site with the
// given probability (percent). Returns the plan for chaining.
func (p *FaultPlan) WithSpurious(site FaultSite, pct float64) *FaultPlan {
	p.spurious[site] = threshold(pct)
	return p
}

// WithValidationFail arms forced validation failures: each backend
// validation pass fails outright with the given probability (percent),
// exercising the abort-with-rollback path with read/compare sets and — at
// commit time — acquired locks in place.
func (p *FaultPlan) WithValidationFail(pct float64) *FaultPlan {
	p.valFail = threshold(pct)
	return p
}

// WithCommitDelay arms commit-window stretching: with the given probability
// (percent) the committing transaction sleeps for d at its serialization
// point, widening the race windows concurrent transactions validate against.
func (p *FaultPlan) WithCommitDelay(pct float64, d time.Duration) *FaultPlan {
	p.delayHit = threshold(pct)
	p.delay = d
	return p
}

// WithCrash arms deterministic crash injection: the afterN-th consult of
// site (1-based) simulates process death on the durable commit pipeline.
// Exactly one site may be armed per plan — a real crash happens once.
func (p *FaultPlan) WithCrash(site CrashSite, afterN int64) *FaultPlan {
	if afterN < 1 {
		afterN = 1
	}
	p.crashArmed = true
	p.crashSite = site
	p.crashLeft.Store(afterN)
	return p
}

// CrashHit reports whether the armed crash fires at this consult of site.
// The caller (the WAL writer or the sharded commit) then freezes its durable
// state and unwinds via CrashPanic. Once fired, the plan stays Crashed and
// never fires again.
func (p *FaultPlan) CrashHit(site CrashSite) bool {
	p.seen[obsCrashBase+int(site)].Add(1)
	if !p.crashArmed || site != p.crashSite || p.crashed.Load() {
		return false
	}
	if p.crashLeft.Add(-1) == 0 {
		p.crashed.Store(true)
		return true
	}
	return false
}

// Crashed reports whether the armed crash has fired — the chaos suites poll
// it to stop the world once the simulated process death happened.
func (p *FaultPlan) Crashed() bool { return p.crashed.Load() }

// CrashedAt reports the armed site and whether its crash has fired; a nil
// plan never crashes.
func (p *FaultPlan) CrashedAt() (CrashSite, bool) {
	if p == nil {
		return 0, false
	}
	return p.crashSite, p.crashed.Load()
}

// SiteObservations returns how many times each instrumented site consulted
// the plan, keyed by the FaultSiteNames labels.
func (p *FaultPlan) SiteObservations() map[string]uint64 {
	names := FaultSiteNames()
	out := make(map[string]uint64, len(names))
	for i, n := range names {
		out[n] = p.seen[i].Load()
	}
	return out
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll draws the next 32-bit variate of the seeded stream and compares it to
// the threshold t; the site is folded in so identical thresholds at
// different sites fire on decorrelated sub-streams.
func (p *FaultPlan) roll(site FaultSite, t uint64) bool {
	if t == 0 {
		return false
	}
	x := splitmix64(p.seed + p.ctr.Add(1)*0x9E3779B97F4A7C15 + uint64(site)<<56)
	return x&0xFFFFFFFF < t
}

// Step is the per-site injection hook. If the spurious stream fires for this
// site, the attempt unwinds via AbortWith(ReasonSpurious). Callers hold no
// resources the runtime's Cleanup cannot release.
func (p *FaultPlan) Step(site FaultSite) {
	if p.SpuriousHit(site) {
		AbortWith(ReasonSpurious)
	}
}

// SpuriousHit reports whether the spurious stream fires for site without
// unwinding, for backends that fold injected faults into their own failure
// accounting (the HTM simulation counts them as hardware failures so its
// lock fallback still engages).
func (p *FaultPlan) SpuriousHit(site FaultSite) bool {
	p.seen[site].Add(1)
	return p.roll(site, p.spurious[site])
}

// ValidationFail reports whether this validation pass must be treated as
// failed. Backends call it at the head of their read-set/compare-set
// validators and abort with the reason that a genuine failure of that
// validator would carry.
func (p *FaultPlan) ValidationFail() bool {
	p.seen[obsValidation].Add(1)
	return p.roll(NumFaultSites, p.valFail)
}

// CommitDelay stalls the caller at its commit serialization point when the
// delay stream fires.
func (p *FaultPlan) CommitDelay() {
	p.seen[obsCommitDelay].Add(1)
	if p.roll(NumFaultSites+1, p.delayHit) {
		time.Sleep(p.delay)
	}
}

// crashSignal is the sentinel carried by the panic that unwinds a simulated
// process crash. It is deliberately NOT the abort sentinel: the runtime's
// retry loop re-throws it after rolling the attempt back, so the "dead"
// worker goroutine surfaces the crash to the chaos harness instead of
// retrying on a log that will never accept another byte.
type crashSignal struct{ site CrashSite }

// CrashPanic unwinds the current attempt as a simulated process death at the
// given crash site. The runtime cleans the attempt up (releasing in-memory
// locks so the surviving test process stays usable) and re-panics; recovery
// correctness is judged purely on the bytes the log froze on disk.
func CrashPanic(site CrashSite) {
	panic(crashSignal{site: site})
}

// IsCrash reports whether a recovered panic value is the simulated-crash
// sentinel, and at which site the crash fired.
func IsCrash(r any) (CrashSite, bool) {
	s, ok := r.(crashSignal)
	return s.site, ok
}
