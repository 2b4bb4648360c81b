// The load generator: simulated client connections driving the store in
// process with counter-heavy traffic — the servegate shape, one goroutine
// per simulated connection submitting straight into the Store. On one core
// batching wins there by amortizing commit work, not by hiding network
// latency.
package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// loadHotKeys is the counter workload's hot set: small enough that the
// batcher's inc merging engages.
const loadHotKeys = 4096

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Connections is the number of simulated client connections.
	Connections int
	// Duration is how long to drive load.
	Duration time.Duration
	// Seed makes the generated op stream deterministic.
	Seed uint64
}

// LoadResult is one load run's outcome tallies.
type LoadResult struct {
	Requests       uint64
	Committed      uint64
	Elapsed        time.Duration
	RequestsPerSec float64
}

// genRequest fills r with the next request of the connection's stream: an
// increment of a hot key 95% of the time, a read of one otherwise.
func genRequest(rng *rand.Rand, r *Request) {
	k := rng.Uint64() % loadHotKeys
	if rng.Intn(100) < 95 {
		r.Ops = append(r.Ops[:0], Op{Code: OpInc, Key: k, Val: 1})
	} else {
		r.Ops = append(r.Ops[:0], Op{Code: OpRead, Key: k})
	}
}

// RunLoad drives the store in-process: cfg.Connections goroutines submitting
// generated requests for cfg.Duration.
func RunLoad(s *Store, cfg LoadConfig) LoadResult {
	var (
		stop      atomic.Bool
		requests  atomic.Uint64
		committed atomic.Uint64
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < cfg.Connections; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(c)*7919))
			r := &Request{Ops: make([]Op, 0, 4)}
			for !stop.Load() {
				genRequest(rng, r)
				res := s.Submit(r)
				requests.Add(1)
				if res.Committed {
					committed.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	out := LoadResult{
		Requests:  requests.Load(),
		Committed: committed.Load(),
		Elapsed:   elapsed,
	}
	out.RequestsPerSec = float64(out.Requests) / elapsed.Seconds()
	return out
}
