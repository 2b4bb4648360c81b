package experiments

// The serving arm behind servegate (DESIGN.md §15): the networked store's
// Submit path driven by the in-process load generator on a durable store
// that must fsync every acknowledged request — the configuration batching
// exists for, where a window of coalesced requests pays the WAL group-commit
// bill once instead of once per request. (Volatile arms on a narrow host
// trade blocking handoffs for sub-microsecond solo commits and prove
// nothing.)

import (
	"os"

	"semstm/internal/server"
	"semstm/stm"
)

// The load is server.RunLoad's counter-heavy traffic: where the batcher's
// inc merging and commit amortization both engage.
const (
	// serverConns / serverShards shape the gate: heavily oversubscribed
	// simulated connections over a modest shard count.
	serverConns  = 1024
	serverShards = 8
	serverFsync  = "always"
)

// serverAlgo is the serving engine: the semantic NOrec variant whose
// deferred increments make the counter workload's merge fold possible.
var serverAlgo = stm.SNOrec

// serveResult is one arm's load result with the batcher counters of the
// same rep.
type serveResult struct {
	server.LoadResult
	Metrics *server.Metrics
}

// runServeArm measures one servegate arm best-of-reps: a fresh durable
// store per rep (no rep pays another's recovery). The unbatched arm's
// elapsed time includes draining its in-flight requests — at fsync "always"
// that drain is itself fsync-bound, so keep cfg.Duration short.
func runServeArm(cfg Config, batching bool) (serveResult, error) {
	return bestOf(cfg.Reps, func(r serveResult) float64 { return r.RequestsPerSec }, func(rep int) (serveResult, error) {
		dir, err := os.MkdirTemp("", "semstm-servegate-")
		if err != nil {
			return serveResult{}, err
		}
		defer os.RemoveAll(dir)
		s, err := server.Open(server.Config{
			Algo: serverAlgo, Shards: serverShards, Batching: batching,
			DurableDir: dir, Fsync: serverFsync,
		})
		if err != nil {
			return serveResult{}, err
		}
		res := server.RunLoad(s, server.LoadConfig{
			Connections: serverConns,
			Duration:    cfg.duration(),
			Seed:        uint64(rep) + 1,
		})
		return serveResult{LoadResult: res, Metrics: s.Metrics()}, s.Close()
	})
}
