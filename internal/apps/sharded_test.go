package apps

import (
	"math/rand"
	"testing"

	"semstm/stm"
)

// shardableAlgos are the engines a sharded runtime accepts (the two-phase
// families plus the degenerate serializing SGL).
var shardableAlgos = []stm.Algorithm{
	stm.NOrec, stm.SNOrec, stm.TL2, stm.STL2, stm.SGL,
}

func eachSharded(t *testing.T, nshards int, f func(t *testing.T, rt *stm.Runtime)) {
	t.Helper()
	for _, a := range shardableAlgos {
		t.Run(a.String(), func(t *testing.T) { f(t, stm.NewShardedRuntime(a, nshards)) })
	}
}

func TestShardedBankInvariants(t *testing.T) {
	eachSharded(t, 4, func(t *testing.T, rt *stm.Runtime) {
		b := NewShardedBank(rt, 32, 1000, 0.2)
		b.Window = 8 // keep the scan cheap: this is a correctness test
		if err := drive(b, 4, 40); err != nil {
			t.Fatal(err)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedBankAudit enables the opt-in whole-shard audit transaction: with
// no cross-shard traffic each shard's sum is invariant, so any in-flight
// deviation an audit observes is a serializability violation Check reports.
func TestShardedBankAudit(t *testing.T) {
	eachSharded(t, 4, func(t *testing.T, rt *stm.Runtime) {
		b := NewShardedBank(rt, 16, 1000, 0)
		b.Window = 4
		b.AuditPct = 0.4
		if err := drive(b, 4, 60); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedBankCrossTraffic pins that the CrossPct knob actually drives the
// two-phase path: with every transfer cross-shard, cross commits must run.
func TestShardedBankCrossTraffic(t *testing.T) {
	rt := stm.NewShardedRuntime(stm.SNOrec, 4)
	b := NewShardedBank(rt, 16, 1000, 1.0)
	b.Window = 4
	if err := drive(b, 4, 60); err != nil {
		t.Fatal(err)
	}
	crossed := uint64(0)
	for _, ss := range rt.ShardStats() {
		crossed += ss.CrossCommits
	}
	if crossed == 0 {
		t.Fatal("CrossPct=1 drove no cross-shard commit")
	}
}

func TestShardedHashtableInvariants(t *testing.T) {
	eachSharded(t, 4, func(t *testing.T, rt *stm.Runtime) {
		h := NewShardedHashtable(rt, 64, 0.2)
		if err := drive(h, 4, 60); err != nil {
			t.Fatal(err)
		}
		if err := rt.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedDriversOnClassicWidth pins the drivers' degenerate case: a
// 1-shard runtime (and a classic Shards()==0 runtime) still runs them, with
// the cross path silently disabled.
func TestShardedDriversOnClassicWidth(t *testing.T) {
	rt := stm.New(stm.SNOrec)
	b := NewShardedBank(rt, 16, 1000, 0.5)
	b.Window = 4
	h := NewShardedHashtable(rt, 64, 0.5)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		b.Op(rng)
		h.Op(rng)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}
