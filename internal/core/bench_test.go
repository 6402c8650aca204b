package core

import (
	"context"
	"testing"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/simulate"
)

// benchBanks builds the BenchScale EST pair used by the step-2
// benchmarks (the same EST3×EST4 pair as the top-level engine bench).
func benchBanks(b *testing.B) (*simulate.DataSet, Options) {
	b.Helper()
	ds := simulate.NewDataSet(64)
	opt := DefaultOptions()
	opt.Workers = 1
	return ds, opt
}

// BenchmarkStep2_EndToEnd measures step 2 alone — index both banks once,
// then time the directory join and its ordered hit extensions.
// ns/op and allocs/op here are the headline numbers of the CSR refactor
// (CHANGES.md records before/after).
func BenchmarkStep2_EndToEnd(b *testing.B) {
	ds, opt := benchBanks(b)
	b1, b2 := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	ix1 := index.Build(b1, index.Options{W: opt.W})
	ix2 := index.Build(b2, index.Options{W: opt.W})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hsps, _, err := step2(context.Background(), b1, b2, ix1, ix2, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(hsps) == 0 {
			b.Fatal("no HSPs")
		}
	}
}

// BenchmarkCompare_EndToEnd measures the full four-step pipeline on the
// same pair, the denominator that bounds how much a step-2 win can move
// whole-run latency.
func BenchmarkCompare_EndToEnd(b *testing.B) {
	ds, opt := benchBanks(b)
	b1, b2 := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(b1, b2, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSharedWorkload is the multi-pair workload of the prepared-bank
// benchmarks below: one subject bank compared against three query
// banks — the EST-sweep shape where every row shares bank 1.
func benchSharedWorkload(b *testing.B) (*bank.Bank, []*bank.Bank, Options) {
	b.Helper()
	ds, opt := benchBanks(b)
	db := ds.Get(simulate.EST5)
	queries := []*bank.Bank{
		ds.Get(simulate.EST2), ds.Get(simulate.EST3), ds.Get(simulate.EST4),
	}
	return db, queries, opt
}

// BenchmarkCompare_Rebuilt is the rebuild-per-pair baseline the
// prepared-bank sessions exist to beat: every pair rebuilds both CSR
// indexes from scratch, which is what plain Compare does.
func BenchmarkCompare_Rebuilt(b *testing.B) {
	db, queries, opt := benchSharedWorkload(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := Compare(db, q, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompare_Reused runs the same workload through a prepared-
// bank cache: each (bank, options) index is built exactly once, on
// first use, and every comparison after that is steps 2–4 only — the
// amortization the ordered-index design front-loads its build for.
// Compare against BenchmarkCompare_Rebuilt.
func BenchmarkCompare_Reused(b *testing.B) {
	db, queries, opt := benchSharedWorkload(b)
	cache := ixcache.New(8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			p1, p2, err := Prepare(cache, db, q, opt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := CompareWithIndex(p1, p2, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompare_Scale16 runs the same pair at the experiment-harness
// scale (divisor 16, banks ~4× the BenchScale size), where step 2
// dominates and the one-time index build cost is better amortized.
func BenchmarkCompare_Scale16(b *testing.B) {
	ds := simulate.NewDataSet(16)
	opt := DefaultOptions()
	opt.Workers = 1
	b1, b2 := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(b1, b2, opt); err != nil {
			b.Fatal(err)
		}
	}
}
