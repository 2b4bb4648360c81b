//go:build !race

// The race detector allocates shadow state on every access, so the
// allocation count is asserted in regular test runs only.

package server

import (
	"testing"

	"semstm/stm"
)

// maxWireAllocs bounds the heap allocations of one loopback Client.Do round
// trip, client and server together. The codec itself allocates nothing for
// these requests, which name no keyspace; what is left is the store's (the
// batcher's pending record, the reads slice) and the client's copy of the
// reads.
const maxWireAllocs = 6

// TestWireAllocs pins the allocations per served request so that the codec's
// gain cannot quietly regress (encoding/json cost 21-26 here).
func TestWireAllocs(t *testing.T) {
	s := volatileStore(t, stm.SNOrec, 4, true)
	srv, err := Serve(s, "127.0.0.1:0", "")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	// A transfer between keys on different shards takes the cross-shard
	// commit, the dearest path.
	a, b := uint64(1), uint64(2)
	for s.ShardOfKey(b) == s.ShardOfKey(a) {
		b++
	}
	if r, err := c.Do([]WireOp{{Op: "write", Key: a, Val: 1 << 20}}); err != nil || !r.OK {
		t.Fatalf("preload: %+v err=%v", r, err)
	}
	for _, tc := range []struct {
		name string
		ops  []WireOp
	}{
		{"read", []WireOp{{Op: "read", Key: a}}},
		{"inc", []WireOp{{Op: "inc", Key: b, Val: 1}}},
		{"transfer", []WireOp{
			{Op: "cmp", Key: a, Cmp: "gte", Val: 1},
			{Op: "inc", Key: a, Val: -1},
			{Op: "inc", Key: b, Val: 1},
		}},
	} {
		do := func() {
			if r, err := c.Do(tc.ops); err != nil || !r.OK || !r.Guard {
				t.Fatalf("%s: %+v err=%v", tc.name, r, err)
			}
		}
		do()
		n := testing.AllocsPerRun(200, do)
		t.Logf("%s: %.1f allocs per round trip", tc.name, n)
		if n > maxWireAllocs {
			t.Errorf("%s: %.1f allocs per round trip, want <= %d", tc.name, n, maxWireAllocs)
		}
	}
}
