package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"semstm/stm"
)

// env is what a run is given: the inputs' seed, the client count (which is
// also GOMAXPROCS), and where temporary log directories may be created.
type env struct {
	seed    uint64
	clients int
	tmpRoot string
}

func (e env) tempDir() (string, error) {
	if err := os.MkdirAll(e.tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.tmpRoot, "wal-")
}

// workload is one of the five benchmark workloads. A run repeats rounds of
// the same fixed work — fresh instance, warm-up of a tenth of the count,
// ops measured operations, output check — until the measured phases add up to
// the requested seconds, and reports the median round.
type workload struct {
	name string
	algo stm.Algorithm
	// ops is the fixed operation count of one round's closed-loop phase,
	// calibrated once so that a round measures roughly one second on the
	// 2-core reference host. It is divided evenly among the clients.
	ops int
	// openOps is the request count of one open-loop phase (serve-tcp only).
	openOps int
	// sampleEvery is the fixed latency sampling stride of the closed loop.
	sampleEvery int
	// serve is the serving stack of a serve-* workload; lib-* workloads
	// leave it zero and set bank instead.
	serve *serveCfg
	bank  bool
}

const latencyStride = 8

var workloads = []workload{
	{name: "lib-hashtable", algo: stm.SNOrec, ops: 8000, sampleEvery: 1}, // ~115 us per transaction: timing each one costs nothing
	{name: "lib-bank", algo: stm.STL2, ops: 1000000, sampleEvery: latencyStride, bank: true},
	{name: "serve-mem", algo: stm.SNOrec, ops: 1000000, sampleEvery: latencyStride,
		serve: &serveCfg{batching: true, mix: mixMixed}},
	{name: "serve-wal", algo: stm.SNOrec, ops: 400000, sampleEvery: latencyStride,
		serve: &serveCfg{batching: true, durable: true, mix: mixCounter}},
	{name: "serve-tcp", algo: stm.SNOrec, ops: 40000, openOps: 6000, sampleEvery: 1,
		serve: &serveCfg{batching: true, tcp: true, mix: mixMixed}},
}

// refMix is the request stream the traced run peels through the serving
// stack: the workload's own for serve-*, the mixed reference stream for
// lib-*, whose own runs never enter those layers.
func (w *workload) refMix() mix {
	if w.serve != nil {
		return w.serve.mix
	}
	return mixMixed
}

// roundSpec is one round's fixed work.
type roundSpec struct {
	open        func(dir string) (instance, error)
	durable     bool      // give open a fresh log directory
	ops         int       // closed-loop operations, over all clients
	sampleEvery int       // closed-loop latency sampling stride
	openOps     int       // requests of each open-loop phase, over all clients
	rates       []float64 // one open-loop phase per rate, before the closed loop
	layer       string    // non-empty: time every closed-loop op into a span
}

// round describes n closed-loop operations of the workload on algo.
func (w *workload) round(e env, algo stm.Algorithm, n int) roundSpec {
	rs := roundSpec{ops: n, sampleEvery: w.sampleEvery, openOps: w.openOps * n / w.ops}
	if w.serve == nil {
		rs.open = func(string) (instance, error) { return openLib(algo, w.bank, e.seed, e.clients), nil }
		return rs
	}
	cfg := *w.serve
	cfg.algo = algo
	return serveRound(e, cfg, rs)
}

func serveRound(e env, cfg serveCfg, rs roundSpec) roundSpec {
	rs.durable = cfg.durable
	rs.open = func(dir string) (instance, error) {
		cfg.dir = dir
		return openServe(cfg, e.seed, e.clients)
	}
	return rs
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The serve-tcp arrival rates, in requests per second over all connections.
// Closed-loop capacity on the reference host is about 31 k.
var (
	openRates = []float64{5000, 10000, 20000}
	openNames = []string{"r5k", "r10k", "r20k"}
)

const (
	reportRate     = 1    // lat_p50_us / lat_p95_us of serve-tcp are the r10k numbers
	latencyLimitUS = 2000 // p99 limit a rate must meet to count for tcp.max_rate_ok_rps
)

// round is the outcome of one round of a workload.
type round struct {
	setup    time.Duration
	closed   phase
	open     []openPhase // serve-tcp: one per rate run
	heapLive uint64
	stats    stm.Snapshot       // engine counters over warm-up + measured phase
	store    map[string]float64 // Store.WriteMetrics, serve-* only
	logBytes int64              // bytes under the log directory, durable only
}

// runRound sets up a fresh instance, runs the open-loop phases and the
// closed loop, checks the outputs and tears the instance down.
func runRound(e env, rs roundSpec) (r round, err error) {
	var dir string
	if rs.durable {
		if dir, err = e.tempDir(); err != nil {
			return r, err
		}
		defer os.RemoveAll(dir)
	}
	runtime.GC() // the previous round's garbage is not this round's cost
	t0 := time.Now()
	inst, err := rs.open(dir)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	clients := make([]func() bool, e.clients)
	for c := range clients {
		clients[c] = inst.client(c)
	}
	per := rs.ops / e.clients
	warm := per / 10
	if len(rs.rates) > 0 {
		closedLoop(clients, warm, 0, 1, "")
		openPer := rs.openOps / e.clients
		for _, rate := range rs.rates {
			r.open = append(r.open, openLoop(clients, e.seed, openPer, rate))
		}
		warm = 0
	}
	r.closed = closedLoop(clients, warm, per, rs.sampleEvery, rs.layer)

	// Live heap with the instance still reachable: bytes in reachable objects
	// after a full collection. HeapInuse would add span fragmentation, which
	// varies by 3 % from round to round on the same work; this does not.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
	r.stats = inst.runtime().Stats()
	if s, ok := inst.(*serveInst); ok {
		r.store = storeMetrics(s.store)
	}
	if dir != "" {
		if r.logBytes, err = dirBytes(dir); err != nil {
			inst.finish()
			return r, err
		}
	}
	extra, err := inst.finish()
	r.setup += extra
	return r, err
}

func (r *round) attempted() (ops, failed uint64) {
	ops, failed = r.closed.ops, r.closed.failed
	for i := range r.open {
		ops += r.open[i].ops
		failed += r.open[i].failed
	}
	return ops, failed
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// result is what one invocation reports on its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minRounds keeps the median meaningful even when a round runs long.
const minRounds = 3

// runEndToEnd is the untraced run: rounds until the measured phases fill the
// requested time, every end-to-end metric the median over rounds.
func (w *workload) runEndToEnd(e env, seconds float64) (result, error) {
	var rates []float64
	if w.openOps > 0 {
		rates = openRates[reportRate : reportRate+1]
	}
	res := result{Metrics: map[string]metric{}}
	series := map[string][]float64{}
	var all hist
	var measured time.Duration
	for n := 0; n < minRounds || measured.Seconds() < seconds; n++ {
		rs := w.round(e, w.algo, w.ops)
		rs.rates = rates
		r, err := runRound(e, rs)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", n, err)
		}
		ops, failed := r.attempted()
		res.Attempted += ops
		res.Failed += failed
		lat, cpu := &r.closed.lat, r.closed.cpu
		measured += r.closed.wall
		for i := range r.open {
			lat = &r.open[i].lat
			cpu += r.open[i].cpu
			measured += r.open[i].wall
		}
		all.merge(lat)
		add := func(name string, v float64) { series[name] = append(series[name], v) }
		add("setup_s", r.setup.Seconds())
		add("throughput_ops_s", r.closed.opsPerSec())
		add("cpu_us_per_op", float64(cpu.Nanoseconds())/1e3/float64(ops))
		add("lat_p50_us", lat.quantile(0.5)/1e3)
		add("lat_p95_us", lat.quantile(0.95)/1e3)
		add("heap_live_mb", float64(r.heapLive)/(1<<20))
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{median(series[d.name]), d.unit}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%s: %d rounds of %d ops, %.2f s measured; %d latency samples (1 in %d), highest supported percentile p%.4f = %.1f us\n",
		w.name, len(series["setup_s"]), w.ops, measured.Seconds(), all.n, w.sampleEvery,
		100*all.supportedQuantile(), all.quantile(all.supportedQuantile())/1e3)
	return res, nil
}
