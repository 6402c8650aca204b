package core

import (
	"context"
	"fmt"
	"testing"
	"time"

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

// lopsidedBanks is the request shape a service serves: banks of 16 reads
// against a resident EST-like db of ≈ 1.3 Mbp from the same gene pool.
// The db's directory, Offsets and Pos are several times the L2 cache and
// a query touches a few thousand scattered codes of it, so step 2 here is
// the join's cache misses, not the extension kernel. Several query banks,
// to be taken in turn: one bank over and over would find its own lines
// of the db still cached, which no request of a service does.
func lopsidedBanks(queries int) (db *bank.Bank, reads []*bank.Bank) {
	pool := simulate.NewPool(1001, 400, 900)
	est := func(name string, seed int64, numSeqs int) *bank.Bank {
		return simulate.EST(simulate.ESTSpec{
			Name: name, Seed: seed, NumSeqs: numSeqs, MeanLen: 450, GeneFraction: 0.7,
			Mut: simulate.Mutation{Sub: 0.035, Indel: 0.004}, PolyATailFraction: 0.15,
		}, pool)
	}
	for i := 0; i < queries; i++ {
		reads = append(reads, est("reads", 7100+int64(i), 16))
	}
	return est("db", 7001, 3000), reads
}

// BenchmarkStep2_Lopsided measures step 2 alone on lopsidedBanks, every
// index prepared once, and reports it per hit pair — the figure to set
// beside BenchmarkStep2_EndToEnd's dense pair (ns/op ÷ its hit pairs).
func BenchmarkStep2_Lopsided(b *testing.B) {
	db, reads := lopsidedBanks(32)
	opt := DefaultOptions()
	opt.Workers = 1
	o1, o2 := opt.IndexOptions()
	ix1 := index.Build(db, o1)
	ix2 := make([]*index.Index, len(reads))
	for i, q := range reads {
		ix2[i] = index.Build(q, o2)
	}
	b.ResetTimer()
	b.ReportAllocs()
	var hitPairs int64
	for i := 0; i < b.N; i++ {
		q := i % len(reads)
		hsps, res, err := step2(context.Background(), db, reads[q], ix1, ix2[q], opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(hsps) == 0 {
			b.Fatal("no HSPs")
		}
		hitPairs += res.hitPairs
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hitPairs), "ns/hit-pair")
}

// splitIndex is the index of b under opts loaded from k blocks of about
// equal sequence counts — what k-1 appends to a stored file leave, the
// bank's index never compacted.
func splitIndex(b *testing.B, bk *bank.Bank, opts index.Options, k int) *index.Index {
	b.Helper()
	blocks := make([]index.BlockParts, k)
	for i := range blocks {
		bp, err := index.BuildBlock(bk, opts, i*bk.NumSeqs()/k, (i+1)*bk.NumSeqs()/k)
		if err != nil {
			b.Fatal(err)
		}
		blocks[i] = bp
	}
	ix, err := index.FromBlocks(bk, opts, blocks)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// BenchmarkStep2_Parts prices each extra part of a stored index, the
// cost of never compacting one: step 2 alone with the bank-1 index split
// into 1, 2 and 8 blocks, on one worker, every slot proven by a first
// pass before the clock starts. Dense is BenchmarkStep2_EndToEnd's EST
// pair, whose parts stay dense down to 8; Lopsided is
// BenchmarkStep2_Lopsided's service shape, where each part is one more
// pass of a query's few thousand codes probed into a directory.
func BenchmarkStep2_Parts(b *testing.B) {
	ds, opt := benchBanks(b)
	db, reads := lopsidedBanks(32)
	for _, shape := range []struct {
		name   string
		b1     *bank.Bank
		b2     []*bank.Bank
		o1, o2 index.Options
	}{
		{"Dense", ds.Get(simulate.EST3), []*bank.Bank{ds.Get(simulate.EST4)}, index.Options{W: opt.W}, index.Options{W: opt.W}},
		{"Lopsided", db, reads, func() index.Options { o1, _ := opt.IndexOptions(); return o1 }(), func() index.Options { _, o2 := opt.IndexOptions(); return o2 }()},
	} {
		ix2 := make([]*index.Index, len(shape.b2))
		for i, q := range shape.b2 {
			ix2[i] = index.Build(q, shape.o2)
		}
		for _, k := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("%s/blocks=%d", shape.name, k), func(b *testing.B) {
				ix1 := splitIndex(b, shape.b1, shape.o1, k)
				for q := range ix2 {
					if _, _, err := step2(context.Background(), shape.b1, shape.b2[q], ix1, ix2[q], opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				b.ReportAllocs()
				var hitPairs int64
				for i := 0; i < b.N; i++ {
					q := i % len(ix2)
					_, res, err := step2(context.Background(), shape.b1, shape.b2[q], ix1, ix2[q], opt)
					if err != nil {
						b.Fatal(err)
					}
					hitPairs += res.hitPairs
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hitPairs), "ns/hit-pair")
			})
		}
	}
}

// BenchmarkStep3_EST is step 3 as a compare pays it: the dense EST pair
// with both indexes prepared, so an op is steps 2–4, and the figure is
// the run's own clock — Metrics.Step3Time over Metrics.GappedExtensions,
// what the harness reports as core.step3_us_per_gapped_ext.
func BenchmarkStep3_EST(b *testing.B) {
	ds, opt := benchBanks(b)
	p1, p2, err := Prepare(nil, ds.Get(simulate.EST3), ds.Get(simulate.EST4), opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var step3 time.Duration
	var exts int
	for i := 0; i < b.N; i++ {
		res, err := CompareWithIndex(p1, p2, opt)
		if err != nil {
			b.Fatal(err)
		}
		step3 += res.Metrics.Step3Time
		exts += res.Metrics.GappedExtensions
	}
	if exts == 0 {
		b.Fatal("no gapped extensions")
	}
	b.ReportMetric(float64(step3.Microseconds())/float64(exts), "us/gapped-ext")
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

// genomicPair is the svc_allpairs shape: two genomic banks of 4 ×
// seqLen bases from one gene pool, with private repeat families and
// low-complexity tracts. At seqLen 525 kb that is about 1.64 M codes a
// side at W = 11, both indexes dense; at 34 kb about 127 K, both
// sparse, just under the threshold (131,071 codes at W = 11).
func genomicPair(seqLen int) (b1, b2 *bank.Bank) {
	pool := simulate.NewPool(1301, 120, 900)
	genomic := func(name string, seed int64) *bank.Bank {
		return simulate.Genomic(simulate.GenomicSpec{
			Name: name, Seed: seed, NumSeqs: 4, SeqLen: seqLen,
			RepeatFamilies: 4, RepeatUnitLen: 300, RepeatCopies: 10, GeneDensity: 2.5,
			Mut: simulate.Mutation{Sub: 0.045, Indel: 0.004}, LowComplexityDensity: 3,
		}, pool)
	}
	return genomic("g1", 1311), genomic("g2", 1312)
}

// BenchmarkJoin measures step 2's directory join alone — joinCodes with
// a visit that only counts the shared codes — on one worker, every index
// prepared: on the svc_allpairs shape (two dense indexes, the bitmap
// walk), on two sparse directories just under the threshold (the
// driven walk's batched bucket searches, about 0.5 MB of Codes a side),
// and on lopsidedBanks (16-read queries driving bit probes into a dense
// db, the fleet_hot shape).
func BenchmarkJoin(b *testing.B) {
	opt := DefaultOptions()
	o1, o2 := opt.IndexOptions()
	run := func(b *testing.B, pairs [][2]*index.Index, class string) {
		if got := joinClass(pairs[0][0], pairs[0][1]); got != class {
			b.Fatalf("the indexes are %s, the case is meant to be %s", got, class)
		}
		b.ResetTimer()
		b.ReportAllocs()
		var shared int64
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			err := joinCodes(context.Background(), p[0], p[1], 1, false, func(_ int, _, _ *index.Part, batch []slotPair) {
				shared += int64(len(batch))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		if shared == 0 {
			b.Fatal("no shared code")
		}
		b.ReportMetric(float64(shared)/float64(b.N), "codes/op")
	}
	b.Run("Equal", func(b *testing.B) {
		g1, g2 := genomicPair(525_000)
		run(b, [][2]*index.Index{{index.Build(g1, o1), index.Build(g2, o2)}}, "dense×dense")
	})
	b.Run("Sparse", func(b *testing.B) {
		g1, g2 := genomicPair(34_000)
		run(b, [][2]*index.Index{{index.Build(g1, o1), index.Build(g2, o2)}}, "sparse×sparse")
	})
	b.Run("Lopsided", func(b *testing.B) {
		db, reads := lopsidedBanks(32)
		ix1 := index.Build(db, o1)
		var pairs [][2]*index.Index
		for _, q := range reads {
			pairs = append(pairs, [2]*index.Index{ix1, index.Build(q, o2)})
		}
		run(b, pairs, "dense×sparse")
	})
}
