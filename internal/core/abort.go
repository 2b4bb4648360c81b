package core

// Reason classifies why a transaction attempt aborted. The taxonomy follows
// the failure modes of the implemented algorithm families: value/version
// validation failures, semantic fact flips, lock-acquisition give-ups,
// capacity-style resource exhaustion (HTM buffers), spurious failures
// (simulated hardware events and injected faults), and explicit user
// restarts. The runtime threads the reason of every abort into the
// aggregate statistics and into the typed errors of the bounded execution
// APIs, so a livelocked workload can be diagnosed from counters instead of
// guesswork.
type Reason uint8

const (
	// ReasonUnknown is the zero reason, used by legacy Abort call sites.
	ReasonUnknown Reason = iota
	// ReasonValidation: classical (value- or version-based) validation of
	// the read-set failed — some location read by the transaction changed.
	ReasonValidation
	// ReasonCmpFlip: a recorded semantic fact (cmp outcome, sum or OR
	// expression) no longer holds — the semantic analogue of validation.
	ReasonCmpFlip
	// ReasonOrecLocked: the transaction gave up waiting for an ownership
	// record held by another transaction (bounded-spin timeout).
	ReasonOrecLocked
	// ReasonCapacity: simulated HTM tracking capacity ran out.
	ReasonCapacity
	// ReasonSpurious: a failure with no logical conflict — the simulated
	// HTM's spurious commit failures, or an injected FaultPlan abort.
	ReasonSpurious
	// ReasonExplicit: user code called Tx.Restart.
	ReasonExplicit
	// ReasonLogFail: the durable commit pipeline could not append the
	// transaction's redo records to the write-ahead log (I/O failure). The
	// attempt rolls back with its locks released and the retry loop
	// escalates straight to the irrevocable serializing mode, where the
	// commit proceeds volatile — the runtime degrades instead of panicking,
	// and the WAL stays latched failed for the health probes to report.
	ReasonLogFail
	// ReasonHWConflict: a hardware path of the progressive HyTM engine lost
	// its conflict-detection epoch — another commit (hardware or software)
	// published while the attempt speculated. Unlike ReasonValidation it is
	// typed separately because it drives the per-path demotion policy: the
	// uninstrumented fast path cannot tell a real conflict from a benign
	// one (it keeps no read-set), so repeated hw-conflicts demote the
	// transaction to the instrumented middle path rather than marking the
	// data genuinely contended.
	ReasonHWConflict
	// ReasonHWCapacity: a hardware path of the progressive HyTM engine
	// overflowed the simulated tracking buffers. It demotes immediately
	// (retrying the same footprint on the same path cannot succeed): the
	// fast path falls to the instrumented middle path, whose facts and
	// deferred increments shrink the tracked set, and the middle path falls
	// to the unbounded software slow path.
	ReasonHWCapacity
	// NumReasons bounds the enum; arrays indexed by Reason use it.
	NumReasons
)

// String returns a short stable label for the reason (used in stats exports).
func (r Reason) String() string {
	switch r {
	case ReasonUnknown:
		return "unknown"
	case ReasonValidation:
		return "validation"
	case ReasonCmpFlip:
		return "cmp-flip"
	case ReasonOrecLocked:
		return "orec-locked"
	case ReasonCapacity:
		return "capacity"
	case ReasonSpurious:
		return "spurious"
	case ReasonExplicit:
		return "explicit"
	case ReasonLogFail:
		return "log-fail"
	case ReasonHWConflict:
		return "hw-conflict"
	case ReasonHWCapacity:
		return "hw-capacity"
	default:
		return "invalid"
	}
}

// abortSignal is the sentinel carried by the panic that unwinds an aborted
// transaction back to the runtime retry loop; it records why the attempt
// died.
type abortSignal struct {
	reason Reason
}

// abortSignals pre-boxes one sentinel per reason. panic takes an interface
// value, and converting a fresh abortSignal on every abort would heap-box it
// — one allocation per abort, a cost that scales with contention exactly
// when the allocator and GC are under the most pressure. Panicking with a
// pre-boxed value keeps the whole abort path allocation-free.
var abortSignals [NumReasons]any

func init() {
	for r := Reason(0); r < NumReasons; r++ {
		abortSignals[r] = abortSignal{reason: r}
	}
}

// Abort unwinds the current transaction attempt with ReasonUnknown. Algorithm
// code should prefer AbortWith; Abort remains for call sites (and tests)
// where the cause carries no information.
func Abort() {
	panic(abortSignals[ReasonUnknown])
}

// AbortWith unwinds the current transaction attempt, recording why. The
// runtime recovers the sentinel, rolls the attempt back, folds the reason
// into the per-reason abort counters, applies contention-management backoff,
// and retries (or returns a typed error from the bounded APIs).
func AbortWith(reason Reason) {
	if reason >= NumReasons {
		reason = ReasonUnknown
	}
	panic(abortSignals[reason])
}

// IsAbort reports whether a recovered panic value is the transaction-abort
// sentinel. Any other value is re-thrown by the runtime, so programmer bugs
// inside atomic blocks surface as ordinary panics.
func IsAbort(r any) bool {
	_, ok := r.(abortSignal)
	return ok
}

// ReasonOf extracts the abort reason from a recovered panic value; ok is
// false when the value is not the abort sentinel.
func ReasonOf(r any) (reason Reason, ok bool) {
	s, ok := r.(abortSignal)
	return s.reason, ok
}
