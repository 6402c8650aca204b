package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/tabular"
)

func mkBank(name string, seqs ...string) *bank.Bank {
	recs := make([]*fasta.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fasta.Record{ID: name + "_" + string(rune('a'+i)), Seq: []byte(s)}
	}
	return bank.New(name, recs)
}

func randSeq(rng *rand.Rand, n int) string {
	letters := []byte("ACGT")
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return string(b)
}

// mutateIndel applies substitutions and indels.
func mutateIndel(rng *rand.Rand, s string, pSub, pIndel float64) string {
	letters := []byte("ACGT")
	var out []byte
	for i := 0; i < len(s); i++ {
		r := rng.Float64()
		switch {
		case r < pIndel/2: // deletion
		case r < pIndel: // insertion
			out = append(out, s[i], letters[rng.Intn(4)])
		case r < pIndel+pSub:
			out = append(out, letters[rng.Intn(4)])
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// testBanks builds a deterministic pair of related banks: nHomologous
// bank-2 sequences are mutated copies of bank-1 sequences; the rest are
// random background.
func testBanks(seedVal int64, n1, n2, nHom, seqLen int) (*bank.Bank, *bank.Bank) {
	rng := rand.New(rand.NewSource(seedVal))
	seqs1 := make([]string, n1)
	for i := range seqs1 {
		seqs1[i] = randSeq(rng, seqLen)
	}
	seqs2 := make([]string, 0, n2)
	for i := 0; i < nHom && i < n1; i++ {
		seqs2 = append(seqs2, mutateIndel(rng, seqs1[i], 0.04, 0.005))
	}
	for len(seqs2) < n2 {
		seqs2 = append(seqs2, randSeq(rng, seqLen))
	}
	return mkBank("b1", seqs1...), mkBank("b2", seqs2...)
}

func mustCompare(t *testing.T, b1, b2 *bank.Bank, opt Options) *Result {
	t.Helper()
	res, err := Compare(b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompareFindsPlantedHomologies(t *testing.T) {
	b1, b2 := testBanks(1, 6, 6, 4, 800)
	opt := DefaultOptions()
	opt.Workers = 1
	res := mustCompare(t, b1, b2, opt)
	if len(res.Alignments) < 4 {
		t.Fatalf("found %d alignments, want ≥ 4 planted homologies", len(res.Alignments))
	}
	// The four homologous pairs (i,i) must each be hit.
	found := map[[2]int32]bool{}
	for _, a := range res.Alignments {
		found[[2]int32{a.Seq1, a.Seq2}] = true
	}
	for i := int32(0); i < 4; i++ {
		if !found[[2]int32{i, i}] {
			t.Errorf("planted homology pair (%d,%d) not found", i, i)
		}
	}
}

func TestCompareNoHomologyFindsNothing(t *testing.T) {
	// Independent random banks: expect no (or nearly no) alignments at
	// E ≤ 1e-3.
	b1, b2 := testBanks(2, 4, 4, 0, 600)
	res := mustCompare(t, b1, b2, DefaultOptions())
	if len(res.Alignments) > 1 {
		t.Errorf("found %d alignments between unrelated banks", len(res.Alignments))
	}
}

func TestAlignmentFieldsConsistent(t *testing.T) {
	b1, b2 := testBanks(3, 4, 4, 3, 700)
	res := mustCompare(t, b1, b2, DefaultOptions())
	if len(res.Alignments) == 0 {
		t.Fatal("no alignments")
	}
	for _, a := range res.Alignments {
		if a.Length != a.Matches+a.Mismatches+a.GapBases {
			t.Errorf("length inconsistency: %+v", a)
		}
		if a.E1 <= a.S1 || a.E2 <= a.S2 {
			t.Errorf("degenerate span: %+v", a)
		}
		if b1.SeqAt(a.S1) != a.Seq1 || b1.SeqAt(a.E1-1) != a.Seq1 {
			t.Errorf("alignment crosses bank1 record boundary: %+v", a)
		}
		if b2.SeqAt(a.S2) != a.Seq2 || b2.SeqAt(a.E2-1) != a.Seq2 {
			t.Errorf("alignment crosses bank2 record boundary: %+v", a)
		}
		if a.EValue > DefaultOptions().MaxEValue {
			t.Errorf("reported alignment above E-value cutoff: %+v", a)
		}
		if a.Identity() < 0.5 || a.Identity() > 1 {
			t.Errorf("suspicious identity %v: %+v", a.Identity(), a)
		}
	}
}

// alignmentsEqual compares the scientific content of two result lists.
// Anchor fields are auxiliary (they record which HSP midpoint seeded
// the extension) and may legitimately differ between execution
// strategies that produce the same alignments.
func alignmentsEqual(a, b []align.Alignment) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(x align.Alignment) align.Alignment {
		x.Anchor1, x.Anchor2 = 0, 0
		return x
	}
	for i := range a {
		if norm(a[i]) != norm(b[i]) {
			return false
		}
	}
	return true
}

func TestParallelStep2Deterministic(t *testing.T) {
	b1, b2 := testBanks(4, 8, 8, 5, 500)
	opt := DefaultOptions()
	opt.Workers = 1
	ref := mustCompare(t, b1, b2, opt)
	for _, workers := range []int{2, 4, 8} {
		opt.Workers = workers
		got := mustCompare(t, b1, b2, opt)
		if !alignmentsEqual(ref.Alignments, got.Alignments) {
			t.Fatalf("workers=%d: %d alignments differ from sequential %d",
				workers, len(got.Alignments), len(ref.Alignments))
		}
	}
}

// TestWorkersDoNotChangeOutput pins what Workers may change: nothing a
// caller can see. On the EST pair, on one strand and on both, the m8
// bytes and every Metrics count at 2 and 4 workers are those at 1.
func TestWorkersDoNotChangeOutput(t *testing.T) {
	ds := simulate.NewDataSet(64)
	b1, b2 := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	for _, strand := range []Strand{PlusOnly, BothStrands} {
		opt := DefaultOptions()
		opt.Strand = strand
		opt.Workers = 1
		ref := mustCompare(t, b1, b2, opt)
		refM8 := tabular.AppendGroup(nil, ref.Alignments, b1, b2)
		if len(refM8) == 0 {
			t.Fatalf("strand %d: no output on the EST pair", strand)
		}
		for _, workers := range []int{2, 4} {
			opt.Workers = workers
			got := mustCompare(t, b1, b2, opt)
			if m8 := tabular.AppendGroup(nil, got.Alignments, b1, b2); !bytes.Equal(m8, refM8) {
				t.Errorf("strand %d workers=%d: m8 differs from workers=1 (%d vs %d bytes)",
					strand, workers, len(m8), len(refM8))
			}
			if g, w := counters(got.Metrics), counters(ref.Metrics); g != w {
				t.Errorf("strand %d workers=%d: metrics %+v, want %+v", strand, workers, g, w)
			}
		}
	}
}

func TestOrderedRuleAblationSameAlignments(t *testing.T) {
	b1, b2 := testBanks(6, 5, 5, 3, 600)
	opt := DefaultOptions()
	opt.Workers = 1
	withRule := mustCompare(t, b1, b2, opt)
	opt.OrderedRule = false
	without := mustCompare(t, b1, b2, opt)
	if without.Metrics.DuplicateHSPs == 0 {
		t.Error("naive mode should have produced duplicate HSPs")
	}
	// The ordered rule may trim borderline HSP sets differently, but on
	// these clean banks final alignments must agree.
	if !alignmentsEqual(withRule.Alignments, without.Alignments) {
		t.Fatalf("ablation changed alignments: %d vs %d",
			len(withRule.Alignments), len(without.Alignments))
	}
}

func TestMetricsAccounting(t *testing.T) {
	b1, b2 := testBanks(7, 5, 5, 3, 600)
	opt := DefaultOptions()
	opt.Workers = 2
	res := mustCompare(t, b1, b2, opt)
	m := res.Metrics
	if m.HitPairs == 0 || m.Extensions == 0 {
		t.Errorf("no work recorded: %+v", m)
	}
	if m.Extensions != m.HitPairs {
		t.Errorf("every hit pair must be an extension attempt: %+v", m)
	}
	if m.HSPs == 0 || m.GappedExtensions == 0 {
		t.Errorf("no HSPs/gapped extensions: %+v", m)
	}
	if m.GappedExtensions+m.SkippedCovered != m.HSPs {
		t.Errorf("step-3 accounting: gapped %d + skipped %d != HSPs %d",
			m.GappedExtensions, m.SkippedCovered, m.HSPs)
	}
	if m.Alignments != len(res.Alignments) {
		t.Errorf("alignment count mismatch")
	}
	if m.IndexedBank1 == 0 || m.IndexedBank2 == 0 {
		t.Errorf("index metrics empty: %+v", m)
	}
}

func TestCoveredSkippingHappens(t *testing.T) {
	// A long, clean homology produces many HSP fragments on nearby
	// diagonals; most should be swallowed by the first alignment.
	b1, b2 := testBanks(8, 2, 2, 2, 3000)
	res := mustCompare(t, b1, b2, DefaultOptions())
	if res.Metrics.SkippedCovered == 0 {
		t.Error("no HSPs were skipped as covered; T_ALIGN test inert")
	}
}

func TestEValueThresholdMonotone(t *testing.T) {
	b1, b2 := testBanks(9, 5, 5, 3, 600)
	strict := DefaultOptions()
	strict.MaxEValue = 1e-30
	loose := DefaultOptions()
	loose.MaxEValue = 10
	rs := mustCompare(t, b1, b2, strict)
	rl := mustCompare(t, b1, b2, loose)
	if len(rs.Alignments) > len(rl.Alignments) {
		t.Errorf("stricter threshold found more alignments: %d > %d",
			len(rs.Alignments), len(rl.Alignments))
	}
	for _, a := range rs.Alignments {
		if a.EValue > 1e-30 {
			t.Errorf("alignment above strict threshold: %+v", a)
		}
	}
}

func TestBothStrandsFindsReverseComplementHomology(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randSeq(rng, 800)
	rc := string(dna.Decode(dna.ReverseComplement(dna.Encode([]byte(s)))))
	b1 := mkBank("b1", s)
	b2 := mkBank("b2", rc)
	opt := DefaultOptions()

	plus := mustCompare(t, b1, b2, opt)
	if len(plus.Alignments) != 0 {
		t.Errorf("plus-only search should find nothing, got %d", len(plus.Alignments))
	}

	opt.Strand = BothStrands
	both := mustCompare(t, b1, b2, opt)
	if len(both.Alignments) == 0 {
		t.Fatal("both-strand search found nothing")
	}
	a := both.Alignments[0]
	if !a.Minus {
		t.Errorf("expected a minus-strand alignment: %+v", a)
	}
	if a.Length < 700 {
		t.Errorf("reverse-complement homology only partially found: %+v", a)
	}
	// Mapped-back coordinates must lie within the original sequence.
	lo, hi := b2.SeqBounds(0)
	if a.S2 < lo || a.E2 > hi {
		t.Errorf("minus-strand coordinates out of range: %+v (seq [%d,%d))", a, lo, hi)
	}
}

func TestAsymmetric10FindsSameHomologies(t *testing.T) {
	b1, b2 := testBanks(11, 4, 4, 3, 700)
	sym := DefaultOptions()
	res11 := mustCompare(t, b1, b2, sym)

	asym := DefaultOptions()
	asym.W = 10
	asym.Asymmetric = true
	res10 := mustCompare(t, b1, b2, asym)

	// §3.4: 10-nt asymmetric indexing detects all 11-nt anchored
	// alignments plus some extra 10-nt ones; pair coverage must be a
	// superset on these banks.
	pairs := func(r *Result) map[[2]int32]bool {
		m := map[[2]int32]bool{}
		for _, a := range r.Alignments {
			m[[2]int32{a.Seq1, a.Seq2}] = true
		}
		return m
	}
	p11, p10 := pairs(res11), pairs(res10)
	for k := range p11 {
		if !p10[k] {
			t.Errorf("pair %v found by W=11 but missed by asymmetric W=10", k)
		}
	}
	// And the asymmetric index must be roughly half the size.
	if res10.Metrics.IndexedBank1 > res11.Metrics.IndexedBank1*6/10 {
		t.Errorf("asymmetric bank1 index not halved: %d vs %d",
			res10.Metrics.IndexedBank1, res11.Metrics.IndexedBank1)
	}
}

// Regression test for the abort-rule/sampling interaction: with
// half-word indexing, aborting on an embedded lower seed that sits at
// an UNSAMPLED bank-1 position loses the HSP outright (that seed can
// never generate it). The fixed rule only aborts on sampled seeds, so
// asymmetric W=10 must find at least as many alignments as symmetric
// W=11 (§3.4: "this is a little bit more efficient than a 11-nt
// indexing").
func TestAsymmetricAtLeastAsSensitiveAsSymmetric(t *testing.T) {
	for seedVal := int64(50); seedVal < 54; seedVal++ {
		b1, b2 := testBanks(seedVal, 6, 6, 4, 700)
		sym := DefaultOptions()
		sym.Workers = 1
		rSym := mustCompare(t, b1, b2, sym)

		asym := DefaultOptions()
		asym.W = 10
		asym.Asymmetric = true
		asym.Workers = 1
		rAsym := mustCompare(t, b1, b2, asym)

		if len(rAsym.Alignments) < len(rSym.Alignments) {
			t.Errorf("seed %d: asymmetric found %d alignments < symmetric %d",
				seedVal, len(rAsym.Alignments), len(rSym.Alignments))
		}
		// Every symmetric alignment must be covered by an asymmetric one
		// (same pair, overlapping box).
		for _, sa := range rSym.Alignments {
			covered := false
			for _, aa := range rAsym.Alignments {
				if aa.Seq1 == sa.Seq1 && aa.Seq2 == sa.Seq2 &&
					aa.S1 < sa.E1 && sa.S1 < aa.E1 &&
					aa.S2 < sa.E2 && sa.S2 < aa.E2 {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("seed %d: symmetric alignment %+v not covered asymmetrically", seedVal, sa)
			}
		}
	}
}

func TestDustOptionReducesRepeatAlignments(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	polyA := randSeq(rng, 200) + string(make40('A')) + randSeq(rng, 200)
	other := randSeq(rng, 200) + string(make40('A')) + randSeq(rng, 200)
	b1 := mkBank("b1", polyA)
	b2 := mkBank("b2", other)
	on := DefaultOptions()
	off := DefaultOptions()
	off.Dust = false
	rOn := mustCompare(t, b1, b2, on)
	rOff := mustCompare(t, b1, b2, off)
	if rOn.Metrics.MaskedSeeds == 0 {
		t.Error("dust masked nothing")
	}
	if len(rOn.Alignments) > len(rOff.Alignments) {
		t.Errorf("dust increased alignments: %d > %d", len(rOn.Alignments), len(rOff.Alignments))
	}
	if len(rOff.Alignments) == 0 {
		t.Error("unfiltered run should report the poly-A match")
	}
}

func make40(c byte) []byte {
	b := make([]byte, 40)
	for i := range b {
		b[i] = c
	}
	return b
}

func TestValidateRejectsBadOptions(t *testing.T) {
	b1, b2 := testBanks(13, 1, 1, 1, 100)
	bad := []func(*Options){
		func(o *Options) { o.W = 2 },
		func(o *Options) { o.W = 99 },
		func(o *Options) { o.Scoring.Match = 0 },
		func(o *Options) { o.UngappedXDrop = 0 },
		func(o *Options) { o.GappedXDrop = -1 },
		func(o *Options) { o.MaxEValue = 0 },
	}
	for i, f := range bad {
		opt := DefaultOptions()
		f(&opt)
		if _, err := Compare(b1, b2, opt); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
}

// TestValidateBoundsScoringAndXDrops: every scoring parameter and both
// X-drops stop at stats.MaxParam — the largest values pass Validate,
// one more is an error, and so is the 2,000,000,000 that used to reach
// the K series.
func TestValidateBoundsScoringAndXDrops(t *testing.T) {
	fields := []func(*Options) *int{
		func(o *Options) *int { return &o.Scoring.Match },
		func(o *Options) *int { return &o.Scoring.Mismatch },
		func(o *Options) *int { return &o.Scoring.GapOpen },
		func(o *Options) *int { return &o.Scoring.GapExtend },
	}
	atBound := DefaultOptions()
	for _, f := range fields {
		*f(&atBound) = stats.MaxParam
	}
	atBound.UngappedXDrop, atBound.GappedXDrop = stats.MaxParam, stats.MaxParam
	if err := atBound.Validate(); err != nil {
		t.Errorf("options at the bound rejected: %v", err)
	}
	for i, f := range fields {
		for _, v := range []int{stats.MaxParam + 1, 2000000000} {
			opt := atBound
			*f(&opt) = v
			if opt.Validate() == nil {
				t.Errorf("scoring field %d = %d accepted", i, v)
			}
		}
	}
	for i, f := range []func(*Options) *int32{
		func(o *Options) *int32 { return &o.UngappedXDrop },
		func(o *Options) *int32 { return &o.GappedXDrop },
	} {
		opt := atBound
		*f(&opt) = stats.MaxParam + 1
		if opt.Validate() == nil {
			t.Errorf("X-drop %d one past the bound accepted", i)
		}
	}
}

func TestResultsSortedQueryMajor(t *testing.T) {
	b1, b2 := testBanks(14, 6, 6, 5, 500)
	res := mustCompare(t, b1, b2, DefaultOptions())
	for i := 1; i < len(res.Alignments); i++ {
		p, a := &res.Alignments[i-1], &res.Alignments[i]
		if a.Seq2 < p.Seq2 {
			t.Fatal("alignments not grouped by query sequence")
		}
		if a.Seq2 == p.Seq2 && a.EValue < p.EValue {
			t.Fatal("alignments within a query not sorted by E-value")
		}
	}
}

func BenchmarkCompareSmallBanks(b *testing.B) {
	b1, b2 := testBanks(20, 20, 20, 10, 400)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(b1, b2, opt); err != nil {
			b.Fatal(err)
		}
	}
}
