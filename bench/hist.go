package main

import (
	"math"
	"math/bits"
)

// hist is a log-bucket latency histogram over nanosecond values. Values below
// 2*histSub land in exact unit buckets; above that each power of two is split
// into histSub linear sub-buckets, so a bucket's midpoint is within
// 1/(2*histSub) = 0.39 % of any value it holds. Recording never allocates;
// every client owns one and the per-client histograms merge after the run.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 128
	histMaxExp  = 35 // values clamp at ~2^43 ns (2.4 h), far past any latency here
	histBuckets = 2*histSub + histMaxExp*histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - 8 // v>>e lies in [histSub, 2*histSub)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return 2*histSub + (e-1)*histSub + int(v>>uint(e)) - histSub
}

// histMid is the value a bucket reports: exact below 2*histSub, else the
// midpoint of the bucket's range.
func histMid(b int) float64 {
	if b < 2*histSub {
		return float64(b)
	}
	e := uint((b-2*histSub)/histSub + 1)
	lo := uint64((b-2*histSub)%histSub+histSub) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the value of rank ceil(q*n), the same rank a sorted slice
// would be indexed at; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return histMid(b)
		}
	}
	return histMid(histBuckets - 1)
}

// supportedQuantile is the highest quantile that still has at least ten
// samples beyond it (0 with fewer than twenty samples).
func (h *hist) supportedQuantile() float64 {
	if h.n < 20 {
		return 0
	}
	return 1 - 10/float64(h.n)
}
