// Package apps implements the paper's micro-benchmarks — Bank, LRU-Cache,
// Hashtable, and an array-queue workload — as reusable drivers over the
// semantic STM API. Each driver exposes one-transaction operations suitable
// for the benchmark harness plus a post-run invariant check.
package apps

import (
	"fmt"
	"math/rand"

	"semstm/stm"
)

// Bank simulates the money-transfer benchmark: each transaction performs up
// to MaxTransfersPerTx transfers between random accounts, skipping a
// transfer when the source balance is insufficient (the overdraft check).
// The overdraft check is a semantic GTE and the balance updates are semantic
// increments, so transactions that merely observe "balance is sufficient"
// do not conflict with concurrent transfers that keep it sufficient.
type Bank struct {
	rt       *stm.Runtime
	accounts []*stm.Var
	initial  int64
}

// MaxTransfersPerTx matches the paper's "multiple transfers (at most 10)".
const MaxTransfersPerTx = 10

// NewBank creates a bank with n accounts, each holding initial units.
func NewBank(rt *stm.Runtime, n int, initial int64) *Bank {
	return &Bank{rt: rt, accounts: stm.NewVars(n, initial), initial: initial}
}

// Op runs one transfer transaction.
func (b *Bank) Op(rng *rand.Rand) {
	n := int64(len(b.accounts))
	k := 1 + rng.Intn(MaxTransfersPerTx)
	type mv struct{ from, to, amt int64 }
	// Fixed-size stack buffer: the transfer count is bounded by the constant,
	// so one Op performs no driver-side heap allocation (see opBufCap).
	var buf [MaxTransfersPerTx]mv
	moves := buf[:k]
	for i := range moves {
		moves[i] = mv{from: rng.Int63n(n), to: rng.Int63n(n), amt: 1 + rng.Int63n(20)}
	}
	b.rt.Atomically(func(tx *stm.Tx) {
		for _, m := range moves {
			if m.from == m.to {
				continue
			}
			if tx.GTE(b.accounts[m.from], m.amt) { // overdraft check
				tx.Dec(b.accounts[m.from], m.amt)
				tx.Inc(b.accounts[m.to], m.amt)
			}
		}
	})
}

// Check verifies conservation of money and the overdraft invariant after the
// system quiesces.
func (b *Bank) Check() error {
	var sum int64
	for i, a := range b.accounts {
		v := a.Load()
		if v < 0 {
			return fmt.Errorf("bank: account %d negative (%d)", i, v)
		}
		sum += v
	}
	want := int64(len(b.accounts)) * b.initial
	if sum != want {
		return fmt.Errorf("bank: total %d, want %d", sum, want)
	}
	return nil
}
