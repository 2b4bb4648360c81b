package core

import "testing"

// Write-set microbenchmarks: the raw container operations behind every
// barrier, free of algorithm logic. GetMiss* are the cases the Bloom
// signature targets; Insert/Reset capture the per-attempt churn a pooled
// transaction descriptor pays.

func benchVars(n int) []*Var {
	vars := make([]*Var, n)
	for i := range vars {
		vars[i] = NewVar(int64(i))
	}
	return vars
}

// BenchmarkWriteSetGetMissSmall: lookups that miss a 4-entry write-set.
func BenchmarkWriteSetGetMissSmall(b *testing.B) {
	ws := NewWriteSet()
	in := benchVars(4)
	out := benchVars(16)
	for i, v := range in {
		ws.PutWrite(v, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws.Get(out[i%len(out)]) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkWriteSetGetMissLarge: lookups that miss a 32-entry write-set.
func BenchmarkWriteSetGetMissLarge(b *testing.B) {
	ws := NewWriteSet()
	in := benchVars(32)
	out := benchVars(16)
	for i, v := range in {
		ws.PutWrite(v, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws.Get(out[i%len(out)]) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkWriteSetGetHitSmall: lookups that hit a 4-entry write-set.
func BenchmarkWriteSetGetHitSmall(b *testing.B) {
	ws := NewWriteSet()
	in := benchVars(4)
	for i, v := range in {
		ws.PutWrite(v, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws.Get(in[i%len(in)]) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkWriteSetGetHitLarge: lookups that hit a 32-entry write-set.
func BenchmarkWriteSetGetHitLarge(b *testing.B) {
	ws := NewWriteSet()
	in := benchVars(32)
	for i, v := range in {
		ws.PutWrite(v, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws.Get(in[i%len(in)]) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkWriteSetInsertReset8: fill 8 entries then Reset, the per-attempt
// lifecycle of a small transaction.
func BenchmarkWriteSetInsertReset8(b *testing.B) {
	ws := NewWriteSet()
	vars := benchVars(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vars {
			ws.PutWrite(v, int64(j))
		}
		ws.Reset()
	}
}

// BenchmarkWriteSetInsertReset64: fill 64 entries then Reset, the large
// transaction lifecycle (beyond any small-set threshold).
func BenchmarkWriteSetInsertReset64(b *testing.B) {
	ws := NewWriteSet()
	vars := benchVars(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vars {
			ws.PutWrite(v, int64(j))
		}
		ws.Reset()
	}
}
