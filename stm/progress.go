// Progress-guarantee layer: bounded and cancellable execution, typed abort
// errors, and the starvation escape to an irrevocable serializing mode.
//
// The paper's retry loop (Atomically) is obstruction-free at best: a
// transaction that keeps losing validation can spin forever. Following the
// argument of Kuznetsov & Ravi ("Why Transactional Memory Should Not Be
// Obstruction-Free") — and the role the lock fallback plays in making
// best-effort HTM deployable — this layer trades unbounded optimism for
// practical progress three ways:
//
//   - TryAtomically bounds the attempt count and returns a typed
//     *AbortError carrying every attempt's abort reason;
//   - AtomicallyCtx bounds execution by a context, so callers can cancel or
//     deadline a livelocked transaction;
//   - after EscalateAfter consecutive aborts, Atomically-family calls
//     escalate to an irrevocable serializing mode: the transaction takes a
//     serialization token that blocks all new attempts (the software
//     analogue of the HTM backend's single-global-lock fallback), outlasts
//     the finite in-flight attempts, and then runs alone, which commits
//     deterministically.
package stm

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"semstm/internal/core"
)

// AbortReason classifies why a transaction attempt aborted; see the core
// Reason constants re-exported below.
type AbortReason = core.Reason

// The abort-reason taxonomy, threaded from every backend's abort sites.
const (
	// AbortUnknown: an untagged abort (legacy call sites).
	AbortUnknown = core.ReasonUnknown
	// AbortValidation: classical read-set validation failed.
	AbortValidation = core.ReasonValidation
	// AbortCmpFlip: a recorded semantic fact changed outcome.
	AbortCmpFlip = core.ReasonCmpFlip
	// AbortOrecLocked: gave up waiting for a locked ownership record.
	AbortOrecLocked = core.ReasonOrecLocked
	// AbortCapacity: HTM capacity exhausted.
	AbortCapacity = core.ReasonCapacity
	// AbortSpurious: simulated-hardware or injected spurious failure.
	AbortSpurious = core.ReasonSpurious
	// AbortExplicit: user code called Tx.Restart.
	AbortExplicit = core.ReasonExplicit
	// AbortLogFail: a durable runtime could not append the commit's redo
	// records to the write-ahead log. The retry loop escalates the next
	// attempt straight to the irrevocable serializing mode and the runtime
	// continues volatile (Durable.WALFailed reports the latched failure).
	AbortLogFail = core.ReasonLogFail
	// AbortHWConflict: a hardware path of the progressive HyTM engine lost
	// its conflict-detection epoch. Repeated hw-conflicts demote the
	// transaction one path down the fast → middle → slow ladder.
	AbortHWConflict = core.ReasonHWConflict
	// AbortHWCapacity: a hardware path of the progressive HyTM engine
	// overflowed the simulated tracking buffers; demotes immediately.
	AbortHWCapacity = core.ReasonHWCapacity
)

// CrashSite identifies a crash-injection point on the durable commit
// pipeline; arm one with FaultPlan.WithCrash on a durable runtime's plan.
type CrashSite = core.CrashSite

// The injectable crash sites (see the core package for their exact
// semantics): death before the batch fsync, death midway through a record
// write, and death after the records are durable but before publication.
const (
	CrashPreFsync            = core.CrashPreFsync
	CrashTornWrite           = core.CrashTornWrite
	CrashPostFsyncPrePublish = core.CrashPostFsyncPrePublish
)

// FaultPlan deterministically injects faults (spurious aborts, forced
// validation failures, commit delays) into the algorithm backends; see
// Runtime.SetFaultPlan and the core package for the knobs.
type FaultPlan = core.FaultPlan

// FaultSite identifies a backend instrumentation point of a FaultPlan.
type FaultSite = core.FaultSite

// The injectable fault sites, re-exported for FaultPlan configuration.
const (
	SiteStart  = core.SiteStart
	SiteRead   = core.SiteRead
	SiteCmp    = core.SiteCmp
	SiteCommit = core.SiteCommit
)

// NewFaultPlan returns an inert fault plan rooted at seed; arm it with the
// With* methods and install it with Runtime.SetFaultPlan before the runtime
// is shared.
func NewFaultPlan(seed uint64) *FaultPlan { return core.NewFaultPlan(seed) }

// AbortError is the typed failure of the bounded execution APIs: the
// transaction did not commit within its attempt budget (Cause == nil) or
// its context ended first (Cause == ctx.Err()).
type AbortError struct {
	// Attempts is how many attempts ran and aborted.
	Attempts int
	// Reasons holds the abort reason of each failed attempt, oldest first.
	// At most abortReasonCap entries are retained (the most recent ones),
	// so unbounded context-cancelled runs cannot accumulate memory.
	Reasons []AbortReason
	// Escalated reports whether the transaction had entered the irrevocable
	// serializing mode before giving up (once the last pre-gate attempt
	// finishes, only an explicit Restart or a context end can still abort an
	// escalated transaction).
	Escalated bool
	// Cause is the context error when the run was cancelled, nil when the
	// attempt budget was exhausted.
	Cause error
}

// abortReasonCap bounds AbortError.Reasons.
const abortReasonCap = 64

// Error summarizes the failure, with a reason histogram when one exists.
func (e *AbortError) Error() string {
	msg := fmt.Sprintf("stm: transaction aborted after %d attempt(s)", e.Attempts)
	if len(e.Reasons) > 0 {
		counts := make(map[string]int, 4)
		for _, r := range e.Reasons {
			counts[r.String()]++
		}
		msg += fmt.Sprintf(" (reasons: %v)", counts)
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work on cancelled runs.
func (e *AbortError) Unwrap() error { return e.Cause }

// TryOption configures a TryAtomically call.
type TryOption func(*tryOpts)

type tryOpts struct {
	maxAttempts int
}

// DefaultMaxAttempts is TryAtomically's attempt budget when no MaxAttempts
// option is given.
const DefaultMaxAttempts = 64

// MaxAttempts bounds a TryAtomically call to n attempts (n >= 1).
func MaxAttempts(n int) TryOption {
	return func(o *tryOpts) { o.maxAttempts = n }
}

// DefaultEscalateAfter is the consecutive-abort threshold at which a
// transaction escalates to the irrevocable serializing mode. Workloads that
// abort this many times in a row are starving; serializing one transaction
// is cheaper than letting it spin indefinitely.
const DefaultEscalateAfter = 256

// maxBackoffPerCall caps the cumulative exponential-backoff sleep of one
// Atomically-family call, so a starved transaction reaches its escalation
// threshold (or its caller's deadline) in bounded wall-clock time instead of
// sleeping ever longer between doomed attempts.
const maxBackoffPerCall = 100 * time.Millisecond

// TryAtomically executes fn as one transaction with a bounded attempt
// budget. It returns nil once an attempt commits, or a *AbortError carrying
// the attempt count and the per-attempt abort reasons once the budget is
// exhausted. Escalation still applies if the budget exceeds the runtime's
// EscalateAfter threshold.
func (rt *Runtime) TryAtomically(fn func(tx *Tx), opts ...TryOption) error {
	max := DefaultMaxAttempts
	if len(opts) > 0 {
		// &o escapes into the option funcs, so the struct is only built when
		// options exist — the common zero-option call stays allocation-free.
		o := tryOpts{maxAttempts: DefaultMaxAttempts}
		for _, opt := range opts {
			opt(&o)
		}
		max = o.maxAttempts
	}
	if max < 1 {
		max = 1
	}
	return rt.run(fn, runCfg{maxAttempts: max})
}

// AtomicallyCtx executes fn as one transaction, retrying on conflict until
// it commits or ctx ends. On cancellation it returns a *AbortError whose
// Cause is ctx.Err() (and which errors.Is-matches the context error); the
// attempt in flight when the context ends is completed or rolled back, never
// torn.
func (rt *Runtime) AtomicallyCtx(ctx context.Context, fn func(tx *Tx)) error {
	if err := ctx.Err(); err != nil {
		return &AbortError{Cause: err}
	}
	return rt.run(fn, runCfg{done: ctx.Done(), ctx: ctx})
}

// runCfg bounds one run of the retry engine. It carries the context itself
// rather than a ctx.Err method value: binding the method allocated a closure
// on every AtomicallyCtx call, including the ones that commit first try.
type runCfg struct {
	maxAttempts int             // 0 = unbounded
	done        <-chan struct{} // non-nil under AtomicallyCtx
	ctx         context.Context // non-nil under AtomicallyCtx; supplies Cause
	privatize   bool            // commit through the engine's privatizing variant
	batchUnits  int             // logical transactions folded into this commit (AtomicallyBatch)
}

// run is the retry engine shared by Atomically, AtomicallyCtx, and
// TryAtomically: gated attempts, reason collection, cancellation-aware
// backoff, and the starvation escalation. The unbounded no-fault path must
// stay hot: per attempt it adds one load of the read-mostly escalator gate
// and predictable branches — everything else is behind `bounded` or the
// escalation threshold. The whole call is allocation-free after descriptor
// warm-up: the descriptor comes from the pool, the reason log lives in the
// descriptor's fixed buffer, and the only remaining allocation is the
// *AbortError built on the bounded failure path.
func (rt *Runtime) run(fn func(tx *Tx), cfg runCfg) error {
	tx := rt.txPool.Get().(*Tx)
	defer rt.releaseTx(tx)
	// Pin the reclamation epoch for the whole call (every attempt included):
	// any *Var pointer the body captures stays out of the recycler until the
	// pin drops (core/epoch.go). LIFO defers run Exit before the pool return.
	tx.pin.Enter()
	defer tx.pin.Exit()
	if tx.epoch != nil {
		tx.epoch.NewEpoch()
	}
	bounded := cfg.maxAttempts > 0 || cfg.done != nil
	escAfter := rt.escalateAfter
	reasons := tx.reasonBuf[:0]
	escalated := false
	budget := maxBackoffPerCall
	defer func() {
		if escalated {
			tx.impl.SetFaultPlan(rt.faultPlan)
			rt.esc.release()
		}
	}()
	for attempt := 0; ; attempt++ {
		if bounded {
			if cfg.done != nil {
				select {
				case <-cfg.done:
					return runErr(attempt, reasons, escalated, cfg)
				default:
				}
			}
			if cfg.maxAttempts > 0 && attempt >= cfg.maxAttempts {
				return runErr(attempt, reasons, escalated, cfg)
			}
		}
		if !escalated {
			// A log-write failure escalates immediately: the WAL is latched
			// failed, so the retry would succeed anyway, but the irrevocable
			// mode guarantees the degraded commit completes right now
			// instead of re-entering the optimistic scrum.
			logFailed := attempt > 0 && tx.lastReason == core.ReasonLogFail
			if logFailed || (escAfter > 0 && attempt >= escAfter) {
				escalated = true
				rt.esc.acquire()
				tx.impl.SetFaultPlan(nil) // irrevocable mode must not abort
				tx.shard.CountEscalation()
			} else if rt.esc.gate.Load() != 0 && !rt.esc.wait(cfg.done) {
				// Cancelled while parked behind an active escalation.
				return runErr(attempt, reasons, escalated, cfg)
			}
		}
		committed, _ := rt.tryOnce(tx, fn, cfg)
		if committed {
			return nil
		}
		if bounded {
			if len(reasons) == abortReasonCap {
				copy(reasons, reasons[1:])
				reasons = reasons[:abortReasonCap-1]
			}
			reasons = append(reasons, tx.lastReason)
		}
		if !escalated {
			tx.backoff(attempt, cfg.done, &budget)
		} else {
			runtime.Gosched() // let the remaining disturbers finish
		}
	}
}

// runErr builds the typed failure of a bounded run. The reason log is copied
// out of the descriptor's buffer here — the descriptor is about to return to
// the pool, and this failure path is the one place a bounded run allocates.
func runErr(attempts int, reasons []AbortReason, escalated bool, cfg runCfg) *AbortError {
	err := &AbortError{Attempts: attempts, Escalated: escalated}
	if len(reasons) > 0 {
		err.Reasons = append([]AbortReason(nil), reasons...)
	}
	if cfg.ctx != nil {
		err.Cause = cfg.ctx.Err()
	}
	return err
}

// escalator implements the serializing protocol of the irrevocable mode
// without touching the fast path: normal attempts only LOAD the read-mostly
// gate word (one predictable cache hit per attempt — no RMW, no shared-line
// write). An escalating transaction serializes behind a mutex and raises
// the gate; it does NOT wait for quiescence. Instead it relies on monotonic
// draining: no attempt that observes the raised gate starts, so the set of
// in-flight "disturber" attempts is finite and strictly shrinking — each
// can abort the escalated transaction at most once (by committing) before
// its own next attempt parks at the gate. After at most that many retries
// the escalated transaction runs alone, and every backend then commits it
// deterministically: there is nobody left to fail validation against, lock
// an orec, or move a clock.
type escalator struct {
	mu   sync.Mutex
	gate atomic.Uint32
}

// wait parks until the gate drops. It reports false only when done fires
// while waiting.
func (e *escalator) wait(done <-chan struct{}) bool {
	for e.gate.Load() != 0 {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		runtime.Gosched()
	}
	return true
}

// acquire serializes this escalation and raises the gate.
func (e *escalator) acquire() {
	e.mu.Lock()
	e.gate.Store(1)
}

// release lowers the gate and lets normal attempts resume.
func (e *escalator) release() {
	e.gate.Store(0)
	e.mu.Unlock()
}

// SetFaultPlan installs a deterministic fault-injection plan on every
// transaction descriptor of the runtime (nil disarms). Like the other
// knobs, it must be set before the runtime is shared between goroutines.
// Escalated (irrevocable) transactions run with the plan disarmed — they
// are past the point of aborting.
func (rt *Runtime) SetFaultPlan(p *FaultPlan) { rt.faultPlan = p }

// SetEscalateAfter sets the consecutive-abort threshold at which one
// Atomically-family call escalates to the irrevocable serializing mode
// (default DefaultEscalateAfter; 0 disables escalation). Must be set before
// the runtime is shared.
func (rt *Runtime) SetEscalateAfter(n int) { rt.escalateAfter = n }

// CheckQuiescent verifies, at a point where no transaction is in flight,
// that the runtime's global metadata holds no leaked resources: the
// NOrec/HTM sequence locks are free, no TL2 ownership record is left
// locked, and the SGL mutex is unlocked. The chaos and panic-rollback tests
// call it after every run; production code can use it as a health probe at
// quiescent points.
func (rt *Runtime) CheckQuiescent() error { return rt.eng.Quiescent() }

// txSeedCtr decorrelates descriptor RNG seeds allocated in the same
// nanosecond (time.Now().UnixNano alone produced shared backoff and
// spurious-abort streams for descriptors born together).
var txSeedCtr atomic.Uint64

// uniqueSeed mixes the clock with a process-global counter through
// SplitMix64, so every descriptor draws an independent stream.
func uniqueSeed() int64 {
	x := uint64(time.Now().UnixNano()) + txSeedCtr.Add(1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}
