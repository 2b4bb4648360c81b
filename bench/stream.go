package main

import (
	"semstm/internal/server"
	"semstm/stm"
)

// The served key universe: every key is preloaded during set-up, increments
// and transfers stay inside the hot set, writes stay outside it. Keeping the
// two apart is what makes the final value of every hot key computable from
// the acknowledgements alone (deltas commute, overwrites do not).
const (
	numKeys    = 65536
	hotKeys    = 4096
	hotInitial = 1000
)

// splitmix is the benchmark's own input generator: the program under test
// only ever sees the requests it produces.
type splitmix uint64

func newStream(seed uint64, client int) *splitmix {
	s := splitmix(seed*0x9E3779B97F4A7C15 + uint64(client+1)*0xD1B54A32D192ED03)
	return &s
}

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float is uniform in (0,1].
func (s *splitmix) float() float64 { return float64(s.next()>>11+1) / (1 << 53) }

type mix uint8

const (
	mixMixed   mix = iota // 40 % read / 25 % inc / 20 % guarded transfer / 15 % write
	mixCounter            // 95 % inc / 5 % read over the hot set
)

type reqKind uint8

const (
	reqRead reqKind = iota
	reqInc
	reqTransfer
	reqWrite
)

// request is one generated client transaction in compact form.
type request struct {
	kind reqKind
	a, b uint64
	val  int64
}

func (s *splitmix) request(m mix) request {
	p := s.next() % 100
	if m == mixCounter {
		k := s.next() % hotKeys
		if p < 95 {
			return request{kind: reqInc, a: k}
		}
		return request{kind: reqRead, a: k}
	}
	switch {
	case p < 40:
		return request{kind: reqRead, a: s.next() % numKeys}
	case p < 65:
		return request{kind: reqInc, a: s.next() % hotKeys}
	case p < 85:
		a := s.next() % hotKeys
		return request{kind: reqTransfer, a: a, b: (a + 1 + s.next()%(hotKeys-1)) % hotKeys}
	default:
		return request{kind: reqWrite, a: hotKeys + s.next()%(numKeys-hotKeys), val: int64(s.next() % 1000)}
	}
}

// reads is how many values the response must carry.
func (q request) reads() int {
	if q.kind == reqRead {
		return 1
	}
	return 0
}

// account adds the request's acknowledged effect on the hot set to delta.
func (q request) account(delta []int64) {
	switch q.kind {
	case reqInc:
		delta[q.a]++
	case reqTransfer:
		delta[q.a]--
		delta[q.b]++
	}
}

func (q request) ops(buf []server.Op) []server.Op {
	switch q.kind {
	case reqRead:
		return append(buf, server.Op{Code: server.OpRead, Key: q.a})
	case reqInc:
		return append(buf, server.Op{Code: server.OpInc, Key: q.a, Val: 1})
	case reqTransfer:
		return append(buf,
			server.Op{Code: server.OpCmp, Key: q.a, Cmp: stm.OpGTE, Val: 1},
			server.Op{Code: server.OpInc, Key: q.a, Val: -1},
			server.Op{Code: server.OpInc, Key: q.b, Val: 1})
	default:
		return append(buf, server.Op{Code: server.OpWrite, Key: q.a, Val: q.val})
	}
}

func (q request) wire(buf []server.WireOp) []server.WireOp {
	switch q.kind {
	case reqRead:
		return append(buf, server.WireOp{Op: "read", Key: q.a})
	case reqInc:
		return append(buf, server.WireOp{Op: "inc", Key: q.a, Val: 1})
	case reqTransfer:
		return append(buf,
			server.WireOp{Op: "cmp", Key: q.a, Cmp: "gte", Val: 1},
			server.WireOp{Op: "inc", Key: q.a, Val: -1},
			server.WireOp{Op: "inc", Key: q.b, Val: 1})
	default:
		return append(buf, server.WireOp{Op: "write", Key: q.a, Val: q.val})
	}
}

// body runs the request's transaction on already resolved cells, with the
// store's guards-first semantics: the stack below server.Store.
func (q request) body(tx *stm.Tx, a, b *stm.Var) {
	switch q.kind {
	case reqRead:
		tx.Read(a)
	case reqInc:
		tx.Inc(a, 1)
	case reqTransfer:
		if tx.Cmp(a, stm.OpGTE, 1) {
			tx.Inc(a, -1)
			tx.Inc(b, 1)
		}
	default:
		tx.Write(a, q.val)
	}
}
