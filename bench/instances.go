package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"semstm/internal/apps"
	"semstm/internal/harness"
	"semstm/internal/server"
	"semstm/stm"
)

// instance is one freshly set-up system under test. client returns the op
// closure of client c (false = the op failed or returned a wrong result);
// finish verifies the outputs once every client has stopped, tears the
// instance down and returns any further set-up time it spent (serve-wal's
// reopen).
type instance interface {
	client(c int) func() bool
	runtime() *stm.Runtime
	finish() (time.Duration, error)
}

// libInst is a paper micro-benchmark driven through Workload.Op.
type libInst struct {
	rt       *stm.Runtime
	w        harness.Workload
	seed     uint64
	baseline uint64 // commits spent by set-up
	issued   []uint64
}

// agingTxs transactions of 64 insert-or-remove operations each (25 600
// toggles over 1536 keys) leave a never-used cell with probability 2e-5.
const agingTxs = 400

// openHashtable builds the paper's hashtable and ages it to the steady state
// of its own churn. Every key's home cell is distinct, so a probe for an
// absent key walks until the next never-used cell; the ~340 such cells the
// prefill leaves are used up by the first few thousand inserts, and until the
// last is gone throughput depends several-fold on how many happen to survive
// — which is seed luck, not the engine. Set-up therefore runs the churn alone
// (the workload's own Op with its public mix fields turned to all toggles)
// until none is left, and restores the paper's mix.
func openHashtable(rt *stm.Runtime, seed uint64) *apps.Hashtable {
	h := apps.NewHashtable(rt, 2048)
	ops, ins, upd := h.OpsPerTx, h.InsertBias, h.UpdateBias
	h.OpsPerTx, h.InsertBias, h.UpdateBias = 64, 1, 0
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < agingTxs; i++ {
		h.Op(rng)
	}
	h.OpsPerTx, h.InsertBias, h.UpdateBias = ops, ins, upd
	return h
}

func openLib(algo stm.Algorithm, bank bool, seed uint64, clients int) *libInst {
	rt := stm.New(algo)
	var w harness.Workload
	if bank {
		w = apps.NewBank(rt, 1024, 1000)
	} else {
		w = openHashtable(rt, seed)
	}
	return &libInst{rt: rt, w: w, seed: seed, baseline: rt.Stats().Commits, issued: make([]uint64, clients*8)}
}

func (l *libInst) client(c int) func() bool {
	rng := rand.New(rand.NewSource(int64(*newStream(l.seed, c))))
	issued := &l.issued[c*8] // one cache line per client
	return func() bool {
		l.w.Op(rng)
		*issued++
		return true
	}
}

func (l *libInst) runtime() *stm.Runtime { return l.rt }

func (l *libInst) finish() (time.Duration, error) {
	if err := l.w.Check(); err != nil {
		return 0, err
	}
	var issued uint64
	for _, n := range l.issued {
		issued += n
	}
	if got := l.rt.Stats().Commits - l.baseline; got != issued {
		return 0, fmt.Errorf("%d ops issued but %d transactions committed", issued, got)
	}
	return 0, nil
}

// serveCfg selects how much of the serving stack an instance puts on top of
// the engine.
type serveCfg struct {
	algo     stm.Algorithm
	batching bool
	durable  bool   // write-ahead logged under dir, fsync policy "interval"
	dir      string // the round's log directory
	tcp      bool   // serve on loopback and drive through Client.Do
	mix      mix
}

// fsyncPolicy is the one durability setting the benchmark ever uses: the
// server's default, where committers return at "written" and a background
// flusher fsyncs.
const fsyncPolicy = "interval"

const serveShards = 8

func (cfg serveCfg) open() (*server.Store, error) {
	return server.Open(server.Config{
		Algo: cfg.algo, Shards: serveShards, Batching: cfg.batching,
		DurableDir: cfg.dir, Fsync: fsyncPolicy,
	})
}

// serveInst is a store (optionally behind the TCP front-end) with every key
// preloaded, plus the per-client record of acknowledged deltas its outputs
// are checked against.
type serveInst struct {
	cfg   serveCfg
	seed  uint64
	store *server.Store
	srv   *server.Server
	conns []*server.Client
	acked [][]int64 // per client: acknowledged delta per hot key
}

// batchKeys is how many keys the preload and read-back requests carry.
const batchKeys = 64

func openServe(cfg serveCfg, seed uint64, clients int) (*serveInst, error) {
	store, err := cfg.open()
	if err != nil {
		return nil, err
	}
	s := &serveInst{cfg: cfg, seed: seed, store: store, acked: make([][]int64, clients)}
	for c := range s.acked {
		s.acked[c] = make([]int64, hotKeys)
	}
	ks := store.Keyspace("")
	for k := uint64(0); k < numKeys; k++ {
		ks.Var(k)
	}
	req := &server.Request{}
	for k := uint64(0); k < hotKeys; k += batchKeys {
		req.Ops = req.Ops[:0]
		for j := uint64(0); j < batchKeys; j++ {
			req.Ops = append(req.Ops, server.Op{Code: server.OpWrite, Key: k + j, Val: hotInitial})
		}
		if res := store.Submit(req); !res.Committed {
			s.close()
			return nil, fmt.Errorf("preload: %v", res.Err)
		}
	}
	if cfg.tcp {
		if s.srv, err = server.Serve(store, "127.0.0.1:0", ""); err != nil {
			s.close()
			return nil, err
		}
		for c := 0; c < clients; c++ {
			conn, err := server.Dial(s.srv.Addr())
			if err != nil {
				s.close()
				return nil, err
			}
			s.conns = append(s.conns, conn)
		}
	}
	return s, nil
}

func (s *serveInst) runtime() *stm.Runtime { return s.store.Runtime() }

func (s *serveInst) client(c int) func() bool {
	stream, acked := newStream(s.seed, c), s.acked[c]
	if s.cfg.tcp {
		conn, ops, sent := s.conns[c], make([]server.WireOp, 0, 4), uint64(0)
		return func() bool {
			q := stream.request(s.cfg.mix)
			ops = q.wire(ops[:0])
			sent++
			resp, err := conn.Do(ops)
			if err != nil || !resp.OK || !resp.Guard || resp.Err != "" || resp.ID != sent || len(resp.Reads) != q.reads() {
				return false
			}
			q.account(acked)
			return true
		}
	}
	req := &server.Request{Ops: make([]server.Op, 0, 4)}
	return func() bool {
		q := stream.request(s.cfg.mix)
		req.Ops = q.ops(req.Ops[:0])
		res := s.store.Submit(req)
		if !res.Committed || !res.GuardOK || res.Err != nil || len(res.Reads) != q.reads() {
			return false
		}
		q.account(acked)
		return true
	}
}

// checkHot reads every hot key back through the store and compares it with
// the preload plus every acknowledged delta: increments are all accounted
// for and transfers conserve, per key.
func (s *serveInst) checkHot(store *server.Store) error {
	req := &server.Request{}
	for k := uint64(0); k < hotKeys; k += batchKeys {
		req.Ops = req.Ops[:0]
		for j := uint64(0); j < batchKeys; j++ {
			req.Ops = append(req.Ops, server.Op{Code: server.OpRead, Key: k + j})
		}
		res := store.Submit(req)
		if !res.Committed || len(res.Reads) != batchKeys {
			return fmt.Errorf("read-back of keys %d..: %v", k, res.Err)
		}
		for j, got := range res.Reads {
			want := int64(hotInitial)
			for _, a := range s.acked {
				want += a[k+uint64(j)]
			}
			if got != want {
				return fmt.Errorf("key %d holds %d, acknowledged requests add up to %d", k+uint64(j), got, want)
			}
		}
	}
	return nil
}

func (s *serveInst) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return s.store.Close()
}

func (s *serveInst) finish() (time.Duration, error) {
	err := s.checkHot(s.store)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil || !s.cfg.durable {
		return 0, err
	}
	// Durable: the acknowledged state must also survive a restart. Reopening
	// replays the whole log, so its duration is the store's recovery time.
	t0 := time.Now()
	reopened, err := s.cfg.open()
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	recovery := time.Since(t0)
	err = s.checkHot(reopened)
	if cerr := reopened.Close(); err == nil {
		err = cerr
	}
	return recovery, err
}

// storeMetrics parses Store.WriteMetrics into "name{labels}" → value.
func storeMetrics(store *server.Store) map[string]float64 {
	var buf bytes.Buffer
	store.WriteMetrics(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
