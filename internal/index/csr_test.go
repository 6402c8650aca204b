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
	if opts.Dust {
		maskBits = dust.MaskBits(b.Data)
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
// BLAT tiles). Random bases almost never score as low-complexity, so a
// dusted case splices an 80-base (AT)40 run into its first sequence, and
// every dusted case must mask some window: the oracle's mask is then
// checked, not vacuously empty.
func TestQuickCSRMatchesLegacyChain(t *testing.T) {
	dusted, masking := 0, 0
	f := func(seedVal int64, nRaw, wRaw, cfgRaw uint8) bool {
		w := int(wRaw)%4 + 3
		opts := Options{W: w, Dust: cfgRaw%2 == 1}
		switch cfgRaw % 3 {
		case 1:
			opts.SampleStep = 2
		case 2:
			opts.SampleStep = w
		}
		recs := randomRecords(seedVal, int(nRaw)%5+1, 200)
		if opts.Dust {
			s := recs[0].Seq
			mid := len(s) / 2
			recs[0].Seq = slices.Concat(s[:mid], bytes.Repeat([]byte("AT"), 40), s[mid:])
		}
		b := bank.New("q", recs)
		ix := Build(b, opts)
		if opts.Dust {
			dusted++
			if ix.MaskedOut > 0 {
				masking++
			}
		}
		return matchesChainRef(ix, buildChainRef(b, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if masking == 0 || masking != dusted {
		t.Errorf("%d of %d dusted cases masked a window: the dust half checks no mask", masking, dusted)
	}
}

// The build's sort takes ⌈2W/11⌉ passes: one at W=4, two at W=11, three
// at W=12. Each digit count is checked against the chain oracle on a
// bank large enough to fill several digits' worth of buckets.
func TestSortDigitCountsMatchLegacyChain(t *testing.T) {
	b := randomBank(12, 5, 6000)
	for _, w := range []int{4, 11, 12} {
		for _, opts := range []Options{{W: w}, {W: w, SampleStep: 2}, {W: w, Dust: true}} {
			if !matchesChainRef(Build(b, opts), buildChainRef(b, opts)) {
				t.Errorf("W=%d opts=%+v: index differs from the chain oracle", w, opts)
			}
		}
	}
}

// The parallel build must be byte-identical to the serial build — the
// shards scan ascending ranges, the buckets keep their words in
// position order, and each bucket's finish is a function of its words
// alone — and the serial build must match an independent oracle: the
// chain for W ≤ 11, a brute-force map above it. Every W the build treats
// differently (one digit in all at W = 5, whose top digit is capped at
// 2W; below the top digit, a short one at 8, one at 11, two from 12 on)
// runs against 1, 2, 3 and 7 workers, on these banks:
//
//   - a random one large enough to clear the minParallelData serial
//     fallback, with dust and sampling;
//   - a repeat-rich one with more than oneBucket windows, so the build
//     buckets them on the top digit: a tandem repeat puts most of them in
//     a few buckets far above smallBucket, and the rest spread thin,
//     most of their buckets below it. Its first record is most of the
//     bank, so under dust (whose shard cuts move to the next sentinel
//     or ambiguous base) the shards are as uneven as they get;
//   - long records a quarter low-complexity tracts, dusted: a cut that
//     stayed where it fell would split a masked run, and the shards'
//     masks would disagree with the oracle's whole-bank pass;
//   - random ones of oneBucket−1, oneBucket and oneBucket+1 sampled
//     positions, at SampleStep 1 and 11 (the rule counts sampled
//     positions, not bases): one bucket, a top digit of 10 bits, and
//     one of 11 — both sides of the one-bucket cutoff and of t = 11;
//   - a skewed one where one top digit holds at least 90 % of the
//     windows, many codes in one bucket: one worker finishes most of the
//     bank, and from W = 12 on sorts that bucket in a scratch as large.
func TestParallelBuildMatchesSerial(t *testing.T) {
	random := randomBank(77, 4, 40000)
	if len(random.Data) < minParallelData {
		t.Fatalf("test bank too small to exercise the parallel path: %d", len(random.Data))
	}
	repeats := repeatRichBank(oneBucket+oneBucket/8, 12000)
	tracts := lowComplexityBank(40, 3000)
	type buildCase struct {
		b    *bank.Bank
		opts Options
	}
	var cutoff []buildCase
	for _, step := range []int{1, 11} {
		// Data of step·(s−1)+1 bytes holds s sampled positions.
		for i, s := range []int{oneBucket - 1, oneBucket, oneBucket + 1} {
			b := bankOfDataLen(step*(s-1) + 1)
			if got := topDigit(Options{W: 11, SampleStep: step}, len(b.Data)); got != []int{0, 10, 11}[i] {
				t.Fatalf("a bank of %d sampled positions at step %d has a %d-bit top digit, want %d", s, step, got, []int{0, 10, 11}[i])
			}
			cutoff = append(cutoff, buildCase{b, Options{SampleStep: step}})
		}
	}
	skewed := skewedBank(oneBucket + oneBucket/8)
	for _, w := range []int{5, 8, 11, 12, 13, 15} {
		cases := []buildCase{
			{random, Options{W: w}},
			{random, Options{W: w, SampleStep: 2}},
			{random, Options{W: w, Dust: true}},
			{repeats, Options{W: w}},
			{repeats, Options{W: w, Dust: true}},
			{tracts, Options{W: w, Dust: true}},
			{skewed, Options{W: w}},
		}
		for _, c := range cutoff {
			c.opts.W = w
			cases = append(cases, c)
		}
		for _, tc := range cases {
			serial := tc.opts
			serial.Workers = 1
			want := Build(tc.b, serial)
			if tc.b == repeats && want.Indexed < oneBucket {
				t.Fatalf("W=%d: repeat-rich bank indexes %d windows, under oneBucket", w, want.Indexed)
			}
			if tc.b == skewed && 2*w > digitBits {
				hot := 0
				eachCode(want, func(c seed.Code, occ []int32) {
					if c>>(2*w-topDigit(serial.normalized(), len(tc.b.Data))) == 0 {
						hot += len(occ)
					}
				})
				if 10*hot < 9*want.Indexed {
					t.Fatalf("W=%d: the skewed bank's hot bucket holds %d of %d windows, under 90 %%", w, hot, want.Indexed)
				}
			}
			if w <= 11 {
				if !matchesChainRef(want, buildChainRef(tc.b, tc.opts)) {
					t.Fatalf("W=%d opts=%+v: serial build differs from the chain oracle", w, tc.opts)
				}
			} else if !tc.opts.Dust {
				step := int32(max(1, tc.opts.SampleStep))
				brute := map[seed.Code][]int32{}
				seed.ForEach(tc.b.Data, w, func(p int32, c seed.Code) {
					if p%step == 0 {
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

// bankOfDataLen is a random bank, in records of 400 bases but the last,
// whose Data is exactly n bytes.
func bankOfDataLen(n int) *bank.Bank {
	rng := rand.New(rand.NewSource(53))
	var recs []*fasta.Record
	for left := n - 1; left > 0; { // Data opens with a sentinel, and each record ends with one
		seq := make([]byte, min(400, left-1))
		for i := range seq {
			seq[i] = "ACGT"[rng.Intn(4)]
		}
		recs = append(recs, &fasta.Record{ID: "random", Seq: seq})
		left -= len(seq) + 1
	}
	return bank.New("random", recs)
}

// skewedBank is a bank of about n bases, in records of 4,000: runs of A,
// each base replaced by a random one with probability 1/80. A window's
// top digit is its last five and a half bases, so the windows that end
// in six As — about 94 % — share the top digit 0, and their codes differ
// in the bases before.
func skewedBank(n int) *bank.Bank {
	rng := rand.New(rand.NewSource(59))
	recs := make([]*fasta.Record, n/4000)
	for r := range recs {
		seq := bytes.Repeat([]byte("A"), 4000)
		for i := range seq {
			if rng.Intn(80) == 0 {
				seq[i] = "ACGT"[rng.Intn(4)]
			}
		}
		recs[r] = &fasta.Record{ID: "skewed", Seq: seq}
	}
	return bank.New("skewed", recs)
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

// The build's bucketing and finish give the CSR form of the words'
// stable order by code: the positions arrive ascending and unique, so
// it is their order as whole words — Pos lists their positions in that
// order, the directory its codes, and Offsets where each code's run
// begins. It is checked on both sides of the one-bucket cutoff and of
// t = 11 — one bucket, a 10-bit top digit and an 11-bit one — for every
// W the build treats differently (one digit in all at W = 5; below the
// top digit, a short one at 8, one at 11, two from 12 on), for 1, 2, 3
// and 7 workers, on uniform codes and on a repeat-rich draw where one
// code holds almost every word: one bucket far above smallBucket, the
// others mostly below it.
func TestSortByCodeIsWordOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, smallBucket + 1, 5000, oneBucket - 1, oneBucket, oneBucket + 1} {
		for _, w := range []int{5, 8, 11, 12, 13, 15} {
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
				var codes []seed.Code
				var offsets []int32
				pos := make([]int32, n)
				for i, v := range want {
					if i == 0 || v>>32 != want[i-1]>>32 {
						codes = append(codes, seed.Code(v>>32))
						offsets = append(offsets, int32(i))
					}
					pos[i] = int32(uint32(v))
				}
				offsets = append(offsets, int32(n))
				for _, workers := range []int{1, 2, 3, 7} {
					got := csrOfWords(slices.Clone(words), w, workers)
					if !slices.Equal(got.Pos, pos) || !slices.Equal(got.Codes, codes) || !slices.Equal(got.Offsets, offsets) {
						t.Fatalf("n=%d W=%d skew=%v workers=%d: not the CSR form of the word order", n, w, skew, workers)
					}
				}
			}
		}
	}
}

// csrOfWords runs the build's bucketing and finish over packed
// code<<32|pos words in position order, as a walk visits them: scattered
// stably into the buckets of the code's top t bits, t being the rule's
// for a range of len(words) sampled positions, and finished bucket by
// bucket. A dense directory's bitmap is listed as Codes.
func csrOfWords(words []uint64, w, workers int) BlockParts {
	t := topDigit(Options{W: w, SampleStep: 1}, len(words))
	shift := 2*w - t
	bounds := make([]int32, 1<<t+1)
	for _, v := range words {
		bounds[v>>32>>shift+1]++
	}
	for d := range 1 << t {
		bounds[d+1] += bounds[d]
	}
	next, scattered := slices.Clone(bounds), make([]uint64, len(words))
	for _, v := range words {
		d := v >> 32 >> shift
		scattered[next[d]] = v
		next[d]++
	}
	var p BlockParts
	if bitmap := emitBuckets(&p, scattered, bounds, w, workers); bitmap != nil {
		p.Codes = listOf(bitmap, len(p.Offsets)-1)
	}
	return p
}
