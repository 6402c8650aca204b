package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/simulate"
)

func benchBank(n int) *bank.Bank {
	rng := rand.New(rand.NewSource(1))
	letters := []byte("ACGT")
	sb := make([]byte, n)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	return bank.New("bench", []*fasta.Record{{ID: "r", Seq: sb}})
}

// BenchmarkIndexBuild measures the scan → radix sort → emit build on a
// 1 Mb bank at W=11, serial vs all-cores parallel, against the legacy
// linked-chain build (the pre-CSR implementation, which computed no
// code directory) as the same-machine baseline —
// and on a 16-read query bank (small16), where B/op is the figure: the
// index is sized by the bank, so it must stay in the hundreds of KB.
func BenchmarkIndexBuild(b *testing.B) {
	small := benchBankSeqs(16, 450)
	b.Run("small16", func(b *testing.B) {
		b.SetBytes(16 * 450)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Build(small, Options{W: 11, Dust: dust.New(0, 0)})
		}
	})
	bk := benchBank(1 << 20)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(1 << 20)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(bk, Options{W: 11, Workers: tc.workers})
			}
		})
	}
	b.Run("legacyChain", func(b *testing.B) {
		b.SetBytes(1 << 20)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildChainRef(bk, Options{W: 11})
		}
	})
}

// BenchmarkIndexScan_CSRvsChain times the step-2 scan shape — walk the
// seed codes of bank 1 in ascending order and enumerate every X1×X2 hit
// pair with its sequence bounds — on the BenchScale EST workload (the
// divisor-64 EST7×EST6 pair, the largest of the EST series the
// top-level table benches sweep), without the extension work, so the
// index access pattern is all that is measured. Both variants iterate
// bank 1's code directory: the chain layout has none of its own, so
// giving it the CSR index's is conservative.
//
// "Chain" reproduces the pre-CSR hot loop verbatim: walk the bank-1
// Dict/Next chain, rematerialize the bank-2 occurrences into an occ2
// cache, and call Bank.SeqAt/SeqBounds per occurrence. "CSR" is the
// current shape: a forward merge of the two sorted directories and two
// contiguous slice views per shared code — positions are all a hit pair
// reads, the records' ends being the bank's own sentinels. The ratio is
// the cache-locality win plus the per-occurrence lookups not made.
func BenchmarkIndexScan_CSRvsChain(b *testing.B) {
	ds := simulate.NewDataSet(64)
	b1, b2 := ds.Get(simulate.EST7), ds.Get(simulate.EST6)
	const w = 11
	ix1 := Build(b1, Options{W: w})
	ix2 := Build(b2, Options{W: w})
	ref1 := buildChainRef(b1, Options{W: w})
	ref2 := buildChainRef(b2, Options{W: w})
	codes := ix1.Codes

	var chainPairs, csrPairs int64
	b.Run("Chain", func(b *testing.B) {
		var sink, pairs int64
		type occ struct{ p, lo, hi int32 }
		var occ2 []occ
		for i := 0; i < b.N; i++ {
			pairs = 0
			for _, c := range codes {
				h1 := ref1.dict[c]
				h2 := ref2.dict[c]
				if h2 < 0 {
					continue
				}
				occ2 = occ2[:0]
				for p2 := h2; p2 >= 0; p2 = ref2.next[p2] {
					lo2, hi2 := b2.SeqBounds(int(b2.SeqAt(p2)))
					occ2 = append(occ2, occ{p2, lo2, hi2})
				}
				for p1 := h1; p1 >= 0; p1 = ref1.next[p1] {
					lo1, hi1 := b1.SeqBounds(int(b1.SeqAt(p1)))
					for _, o2 := range occ2 {
						pairs++
						sink += int64(p1 + o2.p + lo1 + hi1 + o2.lo + o2.hi)
					}
				}
			}
		}
		benchSink, chainPairs = sink, pairs
	})
	b.Run("CSR", func(b *testing.B) {
		var sink, pairs int64
		for i := 0; i < b.N; i++ {
			pairs = 0
			k2 := 0
			for k1, code := range codes {
				for k2 < len(ix2.Codes) && ix2.Codes[k2] < code {
					k2++
				}
				if k2 == len(ix2.Codes) {
					break
				}
				if ix2.Codes[k2] != code {
					continue
				}
				pos2 := ix2.Pos[ix2.Offsets[k2]:ix2.Offsets[k2+1]]
				for _, p1 := range ix1.Pos[ix1.Offsets[k1]:ix1.Offsets[k1+1]] {
					for _, p2 := range pos2 {
						pairs++
						sink += int64(p1 + p2)
					}
				}
			}
		}
		benchSink, csrPairs = sink, pairs
	})
	// Only comparable when a -bench filter didn't skip one variant.
	if chainPairs != 0 && csrPairs != 0 && chainPairs != csrPairs {
		b.Fatalf("scan mismatch: chain saw %d pairs, CSR %d", chainPairs, csrPairs)
	}
}

var benchSink int64

// benchBankSeqs builds a bank of count sequences of seqLen bases each,
// so append-extension benchmarks can split it at record boundaries.
func benchBankSeqs(count, seqLen int) *bank.Bank {
	rng := rand.New(rand.NewSource(7))
	letters := []byte("ACGT")
	recs := make([]*fasta.Record, count)
	for i := range recs {
		sb := make([]byte, seqLen)
		for j := range sb {
			sb[j] = letters[rng.Intn(4)]
		}
		recs[i] = &fasta.Record{ID: fmt.Sprintf("r%d", i), Seq: sb}
	}
	return bank.New("bench", recs)
}

// BenchmarkIndexExtend measures the append-aware rebuild against the
// cold full build it replaces, on the route the store takes: a 4 Mb
// bank of 256 sequences grows by a suffix of 1, 16, or 64 sequences,
// under the engine-default shape (W=11, dust on). The extension builds
// one block over the suffix (scan, mask, sort) and reassembles it with
// the stored block (validation plus a merge of the two directories and
// a copy of the stored arrays), so
// its cost tracks the suffix size with a flat bank-proportional floor,
// while the full build re-scans, re-masks, and re-sorts the whole bank.
func BenchmarkIndexExtend(b *testing.B) {
	const (
		seqs   = 256
		seqLen = 1 << 14 // 256 × 16 Kb = 4 Mb total
	)
	full := benchBankSeqs(seqs, seqLen)
	opts := Options{W: 11, Workers: 1, Dust: dust.New(0, 0)}
	for _, suffix := range []int{1, 16, 64} {
		k := seqs - suffix
		b.Run(fmt.Sprintf("suffix%d", suffix), func(b *testing.B) {
			// benchBankSeqs is deterministic, so the first k records of
			// a fresh generation are exactly the full bank's prefix.
			stored := Build(benchBankSeqs(k, seqLen), opts).Block()
			b.SetBytes(int64(suffix * seqLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tail, err := BuildBlock(full, opts, k, seqs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := FromBlocks(full, opts, []BlockParts{stored, tail}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fullBuild", func(b *testing.B) {
		b.SetBytes(int64(seqs * seqLen))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Build(full, opts)
		}
	})
}
