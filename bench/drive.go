package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, kept in memory and written out only
// when the run ends. Spans of one request share req; parent indexes the span
// that caused this one (-1 at the top of a stack).
type span struct {
	Req    uint32 `json:"req"`
	Client uint16 `json:"client"`
	Layer  string `json:"layer"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

var processStart = time.Now()

func sinceStart() int64 { return int64(time.Since(processStart)) }

// phase is what one measured stretch of work produced.
type phase struct {
	wall       time.Duration
	cpu        time.Duration
	ops        uint64
	failed     uint64
	lat        hist
	allocBytes uint64
	mallocs    uint64
	spans      []span
}

func (p *phase) opsPerSec() float64 { return float64(p.ops-p.failed) / p.wall.Seconds() }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure brackets fn with the process-wide CPU and allocation counters.
func measure(p *phase, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
}

// closedLoop runs one op closure per client: warm untimed calls each, then n
// measured calls each, all clients released together. Every sampleEvery-th
// measured call is timed into the latency histogram; with layer set (the
// traced run) every call is timed and kept as a span. A client sends its next
// op only when the previous one returned.
func closedLoop(clients []func() bool, warm, n, sampleEvery int, layer string) phase {
	var (
		p       phase
		ready   sync.WaitGroup
		done    sync.WaitGroup
		release = make(chan struct{})
		hists   = make([]hist, len(clients))
		failed  = make([]uint64, len(clients))
		spans   = make([][]span, len(clients))
	)
	for c := range clients {
		if layer != "" {
			spans[c] = make([]span, 0, n)
		}
		ready.Add(1)
		done.Add(1)
		go func(c int) {
			defer done.Done()
			op, h := clients[c], &hists[c]
			var bad uint64
			for i := 0; i < warm; i++ {
				if !op() {
					bad++
				}
			}
			ready.Done()
			<-release
			for i := 0; i < n; i++ {
				if layer == "" && i%sampleEvery != 0 {
					if !op() {
						bad++
					}
					continue
				}
				t0 := sinceStart()
				ok := op()
				t1 := sinceStart()
				if !ok {
					bad++
				}
				h.record(t1 - t0)
				if layer != "" {
					spans[c] = append(spans[c], span{Req: uint32(i), Client: uint16(c), Layer: layer, Parent: -1, Start: t0, End: t1})
				}
			}
			failed[c] = bad
		}(c)
	}
	ready.Wait()
	measure(&p, func() {
		close(release)
		done.Wait()
	})
	p.ops = uint64(n * len(clients))
	for c := range clients {
		p.failed += failed[c]
		p.lat.merge(&hists[c])
		p.spans = append(p.spans, spans[c]...)
	}
	return p
}

// sleepUntil blocks until t with a raw nanosleep at 1 ns timer slack: the Go
// runtime's own timers wake an idle process only at millisecond granularity
// (epoll_wait's resolution), which would add up to a millisecond of generator
// lag to every open-loop request.
func sleepUntil(t time.Time) {
	const prSetTimerslack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal) just loops
	}
}

// openPhase is an open-loop stretch: latency from each request's intended
// send time, and how late the generator actually sent it.
type openPhase struct {
	phase
	lag         hist
	backlogGrew bool
}

// backlogLimit is the generator lag beyond which the tail of an open-loop
// phase counts as a growing backlog; it equals the latency limit.
const backlogLimit = 2 * time.Millisecond

// openLoop sends n requests per connection at a total arrival rate of
// rate req/s: every connection follows its own seeded Poisson schedule and
// sends each request at its due time or, when the previous reply is still
// outstanding, as soon as that arrives. The wait is part of the latency.
func openLoop(clients []func() bool, seed uint64, n int, rate float64) openPhase {
	var (
		p     openPhase
		done  sync.WaitGroup
		hists = make([]hist, len(clients))
		lags  = make([]hist, len(clients))
		tail  = make([]hist, len(clients))
		bad   = make([]uint64, len(clients))
	)
	meanGap := float64(len(clients)) / rate * float64(time.Second)
	measure(&p.phase, func() {
		start := time.Now()
		for c := range clients {
			done.Add(1)
			go func(c int) {
				defer done.Done()
				arrivals := newStream(seed^0xA5A5A5A5, c)
				due := start
				for i := 0; i < n; i++ {
					due = due.Add(time.Duration(-meanGap * math.Log(arrivals.float())))
					sleepUntil(due)
					sent := time.Now()
					if !clients[c]() {
						bad[c]++
					}
					hists[c].record(int64(time.Since(due)))
					lags[c].record(int64(sent.Sub(due)))
					if i >= n-n/4 {
						tail[c].record(int64(sent.Sub(due)))
					}
				}
			}(c)
		}
		done.Wait()
	})
	p.ops = uint64(n * len(clients))
	var tailLag hist
	for c := range clients {
		p.failed += bad[c]
		p.lat.merge(&hists[c])
		p.lag.merge(&lags[c])
		tailLag.merge(&tail[c])
	}
	p.backlogGrew = tailLag.quantile(0.5) > float64(backlogLimit)
	return p
}
