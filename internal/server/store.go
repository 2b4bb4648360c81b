// Package server is the networked front-end of the semantic store: named
// keyspaces of int64 cells exposed over a small multi-op transaction
// protocol (read / write / inc / cmp), executed on a sharded semantic
// runtime (stm.NewShardedRuntime), optionally write-ahead logged
// (stm.OpenDurable).
//
// The performance core is the per-shard coalescing batcher (batcher.go): a
// request whose keys all route to one shard enqueues onto that shard's
// queue, and a leader drains a window of queued requests into a single
// Atomically — one descriptor, one commit-time clock acquisition, one
// validation sweep, and (durably) one WAL append + fsync share for the whole
// window, instead of one of each per request. Deferred increments make the
// counter-heavy window even cheaper: inc-only requests against the same key
// merge into a single delta that commits without reading. Requests that
// cannot join a window — keys spanning shards, or touching keys an earlier
// batchmate already wrote — fall out onto the normal per-request path (the
// runtime's two-phase protocol handles the cross-shard ones). Batching is
// invisible to clients: per-request outcomes are demultiplexed back to their
// waiters, and a doomed request is re-executed solo so it cannot abort its
// batchmates.
package server

import (
	"fmt"
	"hash/fnv"
	"sync"

	"semstm/internal/core"
	"semstm/stm"
)

// OpCode is a request operation kind.
type OpCode uint8

const (
	// OpRead returns the cell's value (recorded into Result.Reads).
	OpRead OpCode = iota
	// OpWrite stores Val into the cell.
	OpWrite
	// OpInc adds Val to the cell (a deferred semantic increment).
	OpInc
	// OpCmp guards the request: "cell Cmp Val" must hold or the request's
	// writes are not applied (Result.GuardOK reports the outcome).
	OpCmp
)

// String names the op code as the wire protocol spells it.
func (c OpCode) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpInc:
		return "inc"
	case OpCmp:
		return "cmp"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(c))
	}
}

// ParseOpCode maps the wire spelling back to the code.
func ParseOpCode(s string) (OpCode, error) {
	switch s {
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	case "inc":
		return OpInc, nil
	case "cmp":
		return OpCmp, nil
	default:
		return 0, fmt.Errorf("server: unknown op %q", s)
	}
}

// ParseCmp maps a wire comparison spelling ("eq", "lt", ...) to the semantic
// operator.
func ParseCmp(s string) (stm.Op, error) {
	switch s {
	case "eq":
		return stm.OpEQ, nil
	case "neq":
		return stm.OpNEQ, nil
	case "gt":
		return stm.OpGT, nil
	case "gte":
		return stm.OpGTE, nil
	case "lt":
		return stm.OpLT, nil
	case "lte":
		return stm.OpLTE, nil
	default:
		return 0, fmt.Errorf("server: unknown comparison %q", s)
	}
}

// Op is one operation of a request.
type Op struct {
	Code OpCode
	Ks   string // keyspace name ("" = "default")
	Key  uint64
	Val  int64  // write value / inc delta / cmp operand
	Cmp  stm.Op // comparison operator (OpCmp only)
}

// Request is one client transaction: its ops execute atomically, guards
// first. If every OpCmp guard holds, the writes and increments apply in op
// order; if any guard fails the request commits empty (reads still
// populated, no state change) with Result.GuardOK false. Either way the
// request occupies one position in the store's serial order.
type Request struct {
	Ops []Op

	// doom makes every execution attempt of this request restart — the
	// deterministic stand-in for a transaction doomed by contention or fault
	// injection, used by the chaos suites to prove a doomed request cannot
	// abort its batchmates.
	doom bool

	// prepare() products: one resolved Var per op, the single shard every
	// key routes to (-1 when they span shards), and whether the request is
	// inc-only (mergeable inside a batch window).
	vars    []*stm.Var
	shard   int
	incOnly bool
}

// Doom marks the request as permanently aborting (testing hook).
func (r *Request) Doom() { r.doom = true }

// Result is the outcome of one request.
type Result struct {
	// Committed reports that the request's transaction committed. False only
	// when the request exhausted its attempt budget (Err holds the abort).
	Committed bool
	// GuardOK reports that every OpCmp guard held, i.e. the request's writes
	// were applied. Vacuously true for guardless requests.
	GuardOK bool
	// Reads holds the value of each OpRead, in op order.
	Reads []int64
	// Err is the typed abort when Committed is false, or a validation error.
	Err error
}

// Config configures Open.
type Config struct {
	Algo   stm.Algorithm // engine family (stm.SNOrec if zero Config is used)
	Shards int           // runtime shard count (default 8)

	// DurableDir, when non-empty, opens the store write-ahead logged under
	// this directory (stm.OpenDurable); Fsync selects the policy ("always",
	// "interval", "none"; default "interval").
	DurableDir string
	Fsync      string

	// Batching enables the per-shard coalescing batcher; when false every
	// request runs the solo path (the control arm of the servegate).
	Batching bool
	// MaxBatch bounds the window a leader drains (default 64).
	MaxBatch int
}

// Store is the served keyspace collection bound to one runtime.
type Store struct {
	rt       *stm.Runtime
	dur      *stm.Durable
	shards   int
	batching bool

	mu        sync.RWMutex
	keyspaces map[string]*Keyspace

	batchers []*shardBatcher
	metrics  *Metrics
}

// Open builds a store per cfg. The caller owns Close when DurableDir is set.
func Open(cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	s := &Store{
		shards:    cfg.Shards,
		batching:  cfg.Batching,
		keyspaces: make(map[string]*Keyspace),
		metrics:   newMetrics(),
	}
	if cfg.DurableDir != "" {
		policy := cfg.Fsync
		if policy == "" {
			policy = "interval"
		}
		d, err := stm.OpenDurable(cfg.DurableDir, cfg.Algo, cfg.Shards, stm.WithFsync(policy))
		if err != nil {
			return nil, err
		}
		s.dur = d
		s.rt = d.Runtime()
	} else {
		// NewShardedRuntime panics on an engine it cannot shard; report it
		// the way OpenDurable does for the durable path.
		if d, ok := core.EngineFor(cfg.Algo); !ok || !d.TwoPhase && !d.Irrevocable {
			return nil, fmt.Errorf("server: engine %v cannot be sharded (no two-phase commit)", cfg.Algo)
		}
		s.rt = stm.NewShardedRuntime(cfg.Algo, cfg.Shards)
	}
	s.batchers = make([]*shardBatcher, cfg.Shards)
	for i := range s.batchers {
		s.batchers[i] = newShardBatcher(s, cfg.MaxBatch)
	}
	return s, nil
}

// Runtime exposes the backing runtime (stats scraping, test configuration).
func (s *Store) Runtime() *stm.Runtime { return s.rt }

// Metrics exposes the server-level counters.
func (s *Store) Metrics() *Metrics { return s.metrics }

// Batching reports whether the coalescing batcher is enabled.
func (s *Store) Batching() bool { return s.batching }

// Close seals the durable log (no-op for a volatile store).
func (s *Store) Close() error {
	if s.dur != nil {
		return s.dur.Close()
	}
	return nil
}

// Keyspace is one named int64 keyspace. Cells are allocated lazily on first
// touch, stamped onto the shard their key hashes to — the same routing
// decision the batcher uses, so a cell's shard is known without consulting
// the engine.
type Keyspace struct {
	store *Store
	name  string
	base  uint64 // durable-key prefix (durable stores only)

	mu    sync.RWMutex
	cells map[uint64]*stm.Var
}

// Keyspace returns (creating on first use) the named keyspace.
func (s *Store) Keyspace(name string) *Keyspace {
	if name == "" {
		name = "default"
	}
	s.mu.RLock()
	ks := s.keyspaces[name]
	s.mu.RUnlock()
	if ks != nil {
		return ks
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks = s.keyspaces[name]; ks != nil {
		return ks
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	ks = &Keyspace{
		store: s,
		name:  name,
		base:  h.Sum64() | 1, // durable keys must be nonzero
		cells: make(map[uint64]*stm.Var),
	}
	s.keyspaces[name] = ks
	return ks
}

// shardOfKey is the store-wide key→shard routing function.
func (s *Store) shardOfKey(key uint64) int {
	// Fibonacci hash: adjacent client keys spread across shards.
	return int((key * 0x9E3779B97F4A7C15 >> 33) % uint64(s.shards))
}

// Var resolves (allocating on first touch) the cell of key.
func (ks *Keyspace) Var(key uint64) *stm.Var {
	ks.mu.RLock()
	v := ks.cells[key]
	ks.mu.RUnlock()
	if v != nil {
		return v
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if v = ks.cells[key]; v != nil {
		return v
	}
	shard := ks.store.shardOfKey(key)
	if ks.store.dur != nil {
		// Durable key: the keyspace's FNV base mixed with the client key.
		// Collisions across keyspaces are vanishingly rare for served key
		// ranges; stm.Durable panics loudly if one ever occurs.
		v = ks.store.dur.Var(shard, ks.base^(key+0x517CC1B727220A95), 0)
	} else {
		v = stm.NewVarOn(shard, 0)
	}
	ks.cells[key] = v
	return v
}

// Shard reports the shard the key routes to (diagnostics, tests).
func (s *Store) ShardOfKey(key uint64) int { return s.shardOfKey(key) }

// prepare resolves the request's Vars and classifies it for routing: the
// single shard all keys route to (or -1), and inc-only mergeability. Var
// resolution happens outside any transaction, so the batch body does no map
// lookups or allocation.
func (s *Store) prepare(r *Request) error {
	if len(r.Ops) == 0 {
		return fmt.Errorf("server: empty request")
	}
	if cap(r.vars) < len(r.Ops) {
		r.vars = make([]*stm.Var, len(r.Ops))
	} else {
		r.vars = r.vars[:len(r.Ops)]
	}
	r.shard = -2
	r.incOnly = true
	for i := range r.Ops {
		op := &r.Ops[i]
		switch op.Code {
		case OpRead, OpWrite, OpInc:
		case OpCmp:
			if !op.Cmp.Valid() {
				return fmt.Errorf("server: invalid comparison operator %d", op.Cmp)
			}
		default:
			return fmt.Errorf("server: invalid op code %d", op.Code)
		}
		if op.Code != OpInc {
			r.incOnly = false
		}
		r.vars[i] = s.Keyspace(op.Ks).Var(op.Key)
		sh := s.shardOfKey(op.Key)
		switch {
		case r.shard == -2:
			r.shard = sh
		case r.shard != sh:
			r.shard = -1
		}
	}
	return nil
}

// execute runs the request's ops inside tx with guards-first semantics:
// every OpCmp is evaluated first (reads interleaved in op order are still
// recorded on the read path below), and writes/incs apply only when all
// guards held. A guard-failed request therefore commits without effects —
// which is exactly what makes it safe to keep in a batch: it cannot dirty
// its batchmates' window.
func (r *Request) execute(tx *stm.Tx, res *Result) {
	if r.doom {
		tx.Restart()
	}
	res.Reads = res.Reads[:0]
	guardOK := true
	for i := range r.Ops {
		if r.Ops[i].Code == OpCmp {
			if !tx.Cmp(r.vars[i], r.Ops[i].Cmp, r.Ops[i].Val) {
				guardOK = false
			}
		}
	}
	for i := range r.Ops {
		op := &r.Ops[i]
		switch op.Code {
		case OpRead:
			res.Reads = append(res.Reads, tx.Read(r.vars[i]))
		case OpWrite:
			if guardOK {
				tx.Write(r.vars[i], op.Val)
			}
		case OpInc:
			if guardOK {
				tx.Inc(r.vars[i], op.Val)
			}
		}
	}
	res.GuardOK = guardOK
}

// soloAttempts bounds the per-request path (and the straggler re-execution
// after a failed batch). Far below the escalation threshold: a served
// request that cannot commit in this many attempts reports the typed abort
// to its client instead of seizing the irrevocable mode.
const soloAttempts = 32

// Submit executes one request and returns its outcome: through the shard
// batcher when batching is on and the request is single-shard, else solo.
// Submit is safe for concurrent use; it blocks until the request's outcome
// is known.
func (s *Store) Submit(r *Request) Result {
	var res Result
	if err := s.prepare(r); err != nil {
		res.Err = err
		return res
	}
	if s.batching && r.shard >= 0 {
		return s.batchers[r.shard].submit(r)
	}
	if s.batching && r.shard < 0 {
		s.metrics.soloCross.Add(1)
	}
	s.solo(r, &res)
	return res
}

// solo is the per-request execution path: one bounded transaction.
func (s *Store) solo(r *Request, res *Result) {
	err := s.rt.TryAtomically(func(tx *stm.Tx) {
		r.execute(tx, res)
	}, stm.MaxAttempts(soloAttempts))
	res.Committed = err == nil
	res.Err = err
	s.metrics.noteOutcome(res)
}
