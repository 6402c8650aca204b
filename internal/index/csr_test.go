package index

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/seed"
)

// chainRef is the legacy linked-chain index builder (the pre-CSR
// implementation, kept verbatim as a test oracle): Dict[c] heads a
// position-ascending chain threaded through next[], -1-terminated.
type chainRef struct {
	dict, next []int32
}

func buildChainRef(b *bank.Bank, opts Options) *chainRef {
	opts = opts.normalized()
	n := seed.NumCodes(opts.W)
	r := &chainRef{
		dict: make([]int32, n),
		next: make([]int32, len(b.Data)),
	}
	for i := range r.dict {
		r.dict[i] = -1
	}
	for i := range r.next {
		r.next[i] = -1
	}
	var maskBits []bool
	if opts.Dust != nil {
		maskBits = opts.Dust.MaskBits(b.Data)
	}
	tails := make([]int32, n)
	for i := range tails {
		tails[i] = -1
	}
	step := int32(opts.SampleStep)
	w := opts.W
	seed.ForEach(b.Data, w, func(pos int32, c seed.Code) {
		if step > 1 && pos%step != 0 {
			return
		}
		if maskBits != nil {
			for q := pos; q < pos+int32(w); q++ {
				if maskBits[q] {
					return
				}
			}
		}
		if t := tails[c]; t < 0 {
			r.dict[c] = pos
		} else {
			r.next[t] = pos
		}
		tails[c] = pos
	})
	return r
}

func (r *chainRef) walk(c seed.Code) []int32 {
	var out []int32
	for p := r.dict[c]; p >= 0; p = r.next[p] {
		out = append(out, p)
	}
	return out
}

// equalOcc compares a chain walk against a CSR slice view.
func equalOcc(chain, csr []int32) bool {
	if len(chain) != len(csr) {
		return false
	}
	for i := range chain {
		if chain[i] != csr[i] {
			return false
		}
	}
	return true
}

// total counts the positions the chains hold — a sweep of the oracle's
// own arrays, independent of any index lookup.
func (r *chainRef) total() int {
	n := 0
	for _, p := range r.dict {
		if p >= 0 {
			n++
		}
	}
	for _, p := range r.next {
		if p >= 0 {
			n++
		}
	}
	return n
}

// matchesChainRef reports whether ix lists, for every directory entry,
// exactly the oracle's chain, and nothing of the oracle is missing: the
// runs total Indexed and so do the chains.
func matchesChainRef(ix *Index, ref *chainRef) bool {
	sum, same := 0, true
	eachCode(ix, func(c seed.Code, occ []int32) {
		same = same && equalOcc(ref.walk(c), occ)
		sum += len(occ)
	})
	return same && sum == ix.Indexed && ref.total() == ix.Indexed
}

// Property: every directory entry's occurrence run equals the legacy
// chain walk, and the runs total the chains — across random banks, dust
// on/off, and SampleStep in {1, 2, W} (every position, paper half-words,
// BLAT tiles).
func TestQuickCSRMatchesLegacyChain(t *testing.T) {
	f := func(seedVal int64, nRaw, wRaw, cfgRaw uint8) bool {
		w := int(wRaw)%4 + 3
		opts := Options{W: w}
		switch cfgRaw % 3 {
		case 1:
			opts.SampleStep = 2
		case 2:
			opts.SampleStep = w
		}
		if cfgRaw%2 == 1 {
			opts.Dust = dust.New(16, 1.5)
		}
		b := randomBank(seedVal, int(nRaw)%5+1, 200)
		return matchesChainRef(Build(b, opts), buildChainRef(b, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The build's sort takes ⌈2W/11⌉ passes: one at W=4, two at W=11, three
// at W=12. Each digit count is checked against the chain oracle on a
// bank large enough to fill several digits' worth of buckets.
func TestSortDigitCountsMatchLegacyChain(t *testing.T) {
	b := randomBank(12, 5, 6000)
	for _, w := range []int{4, 11, 12} {
		for _, opts := range []Options{{W: w}, {W: w, SampleStep: 2}, {W: w, Dust: dust.New(0, 0)}} {
			if !matchesChainRef(Build(b, opts), buildChainRef(b, opts)) {
				t.Errorf("W=%d opts=%+v: index differs from the chain oracle", w, opts)
			}
		}
	}
}

// The parallel build must be byte-identical to the serial build — the
// shards scan ascending ranges and are concatenated in shard order, and
// the sort's result is a function of that sequence alone — and the
// serial build must match an independent oracle: the chain for W ≤ 11,
// a brute-force map at W = 15. Every W the sort treats differently
// (one digit in all at W = 5; below the top digit, a short one at 8,
// one at 11, two at 15) runs against 1, 2, 3 and 7 workers, on three
// banks:
//
//   - a random one large enough to clear the minParallelData serial
//     fallback, with dust and sampling;
//   - a repeat-rich one with more than minBucketed windows, so the sort
//     scatters on the top digit: a tandem repeat puts most of them in a
//     few buckets far above smallBucket, and the rest spread thin,
//     most of their buckets below it. Its first record is most of the
//     bank, so under dust (whose shard cuts move to the next sentinel
//     or ambiguous base) the shards are as uneven as they get;
//   - long records a quarter low-complexity tracts, dusted: a cut that
//     stayed where it fell would split a masked run, and the shards'
//     masks would disagree with the oracle's whole-bank pass.
func TestParallelBuildMatchesSerial(t *testing.T) {
	random := randomBank(77, 4, 40000)
	if len(random.Data) < minParallelData {
		t.Fatalf("test bank too small to exercise the parallel path: %d", len(random.Data))
	}
	repeats := repeatRichBank(minBucketed+minBucketed/8, 12000)
	tracts := lowComplexityBank(40, 3000)
	for _, w := range []int{5, 8, 11, 15} {
		for _, tc := range []struct {
			b    *bank.Bank
			opts Options
		}{
			{random, Options{W: w}},
			{random, Options{W: w, SampleStep: 2}},
			{random, Options{W: w, Dust: dust.New(0, 0)}},
			{repeats, Options{W: w}},
			{repeats, Options{W: w, Dust: dust.New(0, 0)}},
			{tracts, Options{W: w, Dust: dust.New(0, 0)}},
		} {
			serial := tc.opts
			serial.Workers = 1
			want := Build(tc.b, serial)
			if tc.b == repeats && want.Indexed < minBucketed {
				t.Fatalf("W=%d: repeat-rich bank indexes %d windows, under minBucketed", w, want.Indexed)
			}
			if w <= 11 {
				if !matchesChainRef(want, buildChainRef(tc.b, tc.opts)) {
					t.Fatalf("W=%d opts=%+v: serial build differs from the chain oracle", w, tc.opts)
				}
			} else if tc.opts.Dust == nil {
				brute := map[seed.Code][]int32{}
				seed.ForEach(tc.b.Data, w, func(p int32, c seed.Code) {
					if tc.opts.SampleStep < 2 || p%2 == 0 {
						brute[c] = append(brute[c], p)
					}
				})
				sameAsBrute(t, want, brute)
			}
			for _, workers := range []int{2, 3, 7} {
				par := tc.opts
				par.Workers = workers
				got := Build(tc.b, par)
				if got.Indexed != want.Indexed || got.MaskedOut != want.MaskedOut || got.SampledOut != want.SampledOut {
					t.Fatalf("W=%d workers=%d opts=%+v: counters %d/%d/%d, serial %d/%d/%d", w, workers, tc.opts,
						got.Indexed, got.MaskedOut, got.SampledOut, want.Indexed, want.MaskedOut, want.SampledOut)
				}
				if !slices.Equal(only(got).Directory(), only(want).Directory()) || !slices.Equal(only(got).Offsets, only(want).Offsets) {
					t.Fatalf("W=%d workers=%d opts=%+v: directory differs from the serial build", w, workers, tc.opts)
				}
				if !slices.Equal(only(got).Pos, only(want).Pos) {
					t.Fatalf("W=%d workers=%d opts=%+v: Pos differs from the serial build", w, workers, tc.opts)
				}
			}
		}
	}
}

// repeatRichBank is a bank of about n bases: one tandem repeat of a
// 24-base unit, then randomLen random bases in records of 400.
func repeatRichBank(n, randomLen int) *bank.Bank {
	rng := rand.New(rand.NewSource(31))
	unit := make([]byte, 24)
	for i := range unit {
		unit[i] = "ACGT"[rng.Intn(4)]
	}
	recs := []*fasta.Record{{ID: "repeat", Seq: bytes.Repeat(unit, (n-randomLen)/len(unit))}}
	for len(recs) < 1+randomLen/400 {
		seq := make([]byte, 400)
		for i := range seq {
			seq[i] = "ACGT"[rng.Intn(4)]
		}
		recs = append(recs, &fasta.Record{ID: "random", Seq: seq})
	}
	return bank.New("repeats", recs)
}

// lowComplexityBank is count records of about seqLen bases, random
// with no ambiguous base, every fourth 100 bases a dinucleotide or
// mononucleotide tract that dust masks.
func lowComplexityBank(count, seqLen int) *bank.Bank {
	rng := rand.New(rand.NewSource(47))
	recs := make([]*fasta.Record, count)
	for i := range recs {
		var seq []byte
		for len(seq) < seqLen {
			if rng.Intn(4) == 0 {
				seq = append(seq, bytes.Repeat([]byte([]string{"AC", "TG", "AA"}[rng.Intn(3)]), 50)...)
				continue
			}
			for range 100 {
				seq = append(seq, "ACGT"[rng.Intn(4)])
			}
		}
		recs[i] = &fasta.Record{ID: "tracts", Seq: seq}
	}
	return bank.New("tracts", recs)
}

// sortByCode's result is the words' stable order by code: the positions
// arrive ascending and unique, so it is their order as whole words. It
// is checked on both sides of minBucketed, for every W the sort treats
// differently and 1, 2, 3 and 7 workers, on uniform codes and on a
// repeat-rich draw where one code holds almost every word — one bucket
// far above smallBucket, the others mostly below it.
func TestSortByCodeIsWordOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, smallBucket + 1, 5000, minBucketed + 4099} {
		for _, w := range []int{5, 8, 11, 15} {
			for _, skew := range []bool{false, true} {
				words := make([]uint64, n)
				hot := uint64(rng.Intn(1 << (2 * w)))
				for i := range words {
					c := uint64(rng.Intn(1 << (2 * w)))
					if skew && rng.Intn(100) < 97 {
						c = hot
					}
					words[i] = c<<32 | uint64(i)
				}
				want := slices.Sorted(slices.Values(words))
				for _, workers := range []int{1, 2, 3, 7} {
					a := slices.Clone(words)
					if got := sortByCode(a, make([]uint64, n), w, workers); !slices.Equal(got, want) {
						t.Fatalf("n=%d W=%d skew=%v workers=%d: not in word order", n, w, skew, workers)
					}
				}
			}
		}
	}
}
