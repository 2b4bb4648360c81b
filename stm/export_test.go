package stm

import "semstm/internal/shard"

// Test-only introspection, compiled into this package's tests alone.

// ShardClock probes shard s's commit metadata (TL2 version clock or NOrec
// sequence lock) of the runtime's engine. The second
// result is false on classic runtimes, out-of-range shards, and engines
// without a clock probe. Routing tests use it to assert that single-shard
// traffic never moves another shard's clock.
func (rt *Runtime) ShardClock(s int) (uint64, bool) {
	if se, ok := rt.eng.(*shard.Engine); ok {
		return se.ClockValue(s)
	}
	return 0, false
}

// InjectLogFailure latches err as the log's terminal error — the
// deterministic stand-in for a dying disk. The next durable commit aborts
// with AbortLogFail, escalates to the irrevocable mode, and completes
// volatile; the runtime keeps serving transactions.
func (d *Durable) InjectLogFailure(err error) { d.set.InjectFailure(err) }
