package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistAgainstSortedSlice checks the ≤1 % bucket error and the merge
// against an exact sorted-slice reference.
func TestHistAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var parts [4]hist
	var ref []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 1 ns .. ~1 s, the range latencies here span.
		v := int64(math.Exp(rng.Float64() * math.Log(1e9)))
		parts[i%len(parts)].record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	var h hist
	for i := range parts {
		h.merge(&parts[i])
	}
	if h.n != uint64(len(ref)) {
		t.Fatalf("merged count %d, want %d", h.n, len(ref))
	}
	for _, q := range []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := ref[int(math.Ceil(q*float64(len(ref))))-1]
		got := h.quantile(q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q%.3f: got %.1f, want %.1f (>1%% off)", q, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() { h.record(12345) }); got != 0 {
		t.Errorf("record allocates %.1f times", got)
	}
	if q := h.supportedQuantile(); math.Abs(q-(1-10/200100.0)) > 1e-9 {
		t.Errorf("supportedQuantile = %v", q)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1 << 20, 1<<20 + 1<<13, 1 << 42, 1 << 60} {
		b := histBucket(v)
		if b < prev || b >= histBuckets {
			t.Fatalf("bucket(%d) = %d out of order or range", v, b)
		}
		prev = b
	}
}
