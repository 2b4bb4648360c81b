package core

import (
	"runtime"
	"time"
)

// Waiter is the adaptive waiter shared by every bounded wait loop on the
// commit path (orec write locks, the NOrec/HTM sequence lock). It escalates
// through three tiers:
//
//  1. a short exponential busy-spin — when the owner is running on another
//     core, commit-time holds last tens of nanoseconds and spinning wins;
//  2. processor yields (runtime.Gosched) — hands the P to another goroutine
//     so a same-P owner can make progress;
//  3. brief exponential sleeps — the only tier that parks the OS thread.
//     When cores are oversubscribed (GOMAXPROCS > physical cores, or more
//     workers than cores) the lock holder may be preempted at OS level; a
//     Gosched loop then burns the waiter's entire OS quantum without ever
//     letting the holder run. Sleeping releases the CPU to the holder.
//
// The zero value is ready to use; Reset it between distinct waits. Waiter is
// not safe for concurrent use — each transaction descriptor embeds its own.
type Waiter struct {
	round int
}

// Escalation schedule. The spin tier is deliberately tiny: on a machine
// where the owner cannot run concurrently (single core) spinning is pure
// waste, and on a multicore the first couple of rounds already cover the
// fast-release case.
const (
	waitSpinRounds  = 3                      // busy-spin rounds (tier 1)
	waitYieldRounds = 32                     // Gosched rounds after that (tier 2)
	waitSleepBase   = 20 * time.Microsecond  // first sleep of tier 3
	waitSleepMax    = 640 * time.Microsecond // per-round sleep cap
)

// cpuRelax burns roughly n no-op iterations. The gc compiler does not
// eliminate empty loops, so this needs no sink; it stays out of the inliner
// so the loop cannot be folded into a caller and removed.
//
//go:noinline
func cpuRelax(n uint32) {
	for i := uint32(0); i < n; i++ {
	}
}

// Rounds reports how many wait rounds have elapsed since the last Reset;
// callers compare it against their starvation bound.
func (w *Waiter) Rounds() int { return w.round }

// Reset re-arms the waiter for a new wait.
func (w *Waiter) Reset() { w.round = 0 }

// Wait performs one escalating wait round and returns the total rounds so
// far (so `for { ...; if w.Wait() > bound { abort } }` stays a one-liner).
func (w *Waiter) Wait() int {
	r := w.round
	w.round++
	switch {
	case r < waitSpinRounds:
		cpuRelax(8 << uint(r))
	case r < waitSpinRounds+waitYieldRounds:
		runtime.Gosched()
	default:
		d := waitSleepBase << uint(r-waitSpinRounds-waitYieldRounds)
		if d > waitSleepMax {
			d = waitSleepMax
		}
		time.Sleep(d)
	}
	return w.round
}
