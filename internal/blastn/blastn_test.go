package blastn

import (
	"math/rand"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/stats"
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

func mutateIndel(rng *rand.Rand, s string, pSub, pIndel float64) string {
	letters := []byte("ACGT")
	var out []byte
	for i := 0; i < len(s); i++ {
		r := rng.Float64()
		switch {
		case r < pIndel/2:
		case r < pIndel:
			out = append(out, s[i], letters[rng.Intn(4)])
		case r < pIndel+pSub:
			out = append(out, letters[rng.Intn(4)])
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

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
	return mkBank("db", seqs1...), mkBank("q", seqs2...)
}

func TestFindsPlantedHomologies(t *testing.T) {
	db, q := testBanks(1, 6, 6, 4, 800)
	res, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]int32]bool{}
	for _, a := range res.Alignments {
		found[[2]int32{a.Seq1, a.Seq2}] = true
	}
	for i := int32(0); i < 4; i++ {
		if !found[[2]int32{i, i}] {
			t.Errorf("planted pair (%d,%d) missed", i, i)
		}
	}
}

func TestNoHomologyFindsNothing(t *testing.T) {
	db, q := testBanks(2, 4, 4, 0, 600)
	res, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) > 1 {
		t.Errorf("found %d alignments between unrelated banks", len(res.Alignments))
	}
}

func TestAlignmentFieldsConsistent(t *testing.T) {
	db, q := testBanks(3, 4, 4, 3, 700)
	res, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) == 0 {
		t.Fatal("no alignments")
	}
	for _, a := range res.Alignments {
		if a.Length != a.Matches+a.Mismatches+a.GapBases {
			t.Errorf("length inconsistency: %+v", a)
		}
		if db.SeqAt(a.S1) != a.Seq1 || db.SeqAt(a.E1-1) != a.Seq1 {
			t.Errorf("alignment crosses db record boundary: %+v", a)
		}
		if q.SeqAt(a.S2) != a.Seq2 || q.SeqAt(a.E2-1) != a.Seq2 {
			t.Errorf("alignment crosses query record boundary: %+v", a)
		}
		if a.EValue > DefaultOptions().MaxEValue {
			t.Errorf("alignment above cutoff: %+v", a)
		}
	}
}

// The paper's central sensitivity claim: SCORIS-N and BLASTN find
// essentially the same alignments. On clean planted homologies the two
// engines must agree on the (seq1, seq2) pairs found.
func TestAgreesWithORISOnCleanHomologies(t *testing.T) {
	db, q := testBanks(4, 8, 8, 6, 700)
	bres, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ores, err := core.Compare(db, q, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bp := map[[2]int32]bool{}
	for _, a := range bres.Alignments {
		bp[[2]int32{a.Seq1, a.Seq2}] = true
	}
	op := map[[2]int32]bool{}
	for _, a := range ores.Alignments {
		op[[2]int32{a.Seq1, a.Seq2}] = true
	}
	for i := int32(0); i < 6; i++ {
		k := [2]int32{i, i}
		if !bp[k] {
			t.Errorf("BLASTN missed planted pair %v", k)
		}
		if !op[k] {
			t.Errorf("ORIS missed planted pair %v", k)
		}
	}
}

func TestDiagonalSkippingReducesExtensions(t *testing.T) {
	// A highly repetitive region would trigger an extension per word hit
	// without the diagonal array.
	db, q := testBanks(5, 2, 2, 2, 2000)
	res, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SkippedByDiag == 0 {
		t.Error("diagonal redundancy array never skipped a hit")
	}
	if m.Extensions+m.SkippedByDiag+m.VerifyFailed != m.WordHits {
		t.Errorf("hit accounting: ext %d + skipped %d + failed %d != hits %d",
			m.Extensions, m.SkippedByDiag, m.VerifyFailed, m.WordHits)
	}
}

func TestScanCostScalesWithQueryCount(t *testing.T) {
	// The structural property the paper exploits: scanning work is
	// (number of queries) × (db size), measured via ScannedPositions.
	rng := rand.New(rand.NewSource(6))
	dbSeq := randSeq(rng, 3000)
	db := mkBank("db", dbSeq)
	q1 := mkBank("q", randSeq(rng, 300))
	q4 := mkBank("q", randSeq(rng, 300), randSeq(rng, 300), randSeq(rng, 300), randSeq(rng, 300))
	r1, err := Compare(db, q1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Compare(db, q4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r4.Metrics.ScannedPositions != 4*r1.Metrics.ScannedPositions {
		t.Errorf("scan cost not linear in queries: %d vs 4×%d",
			r4.Metrics.ScannedPositions, r1.Metrics.ScannedPositions)
	}
}

func TestShortQueriesSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := mkBank("db", randSeq(rng, 500))
	q := mkBank("q", "ACGT", randSeq(rng, 300)) // first query shorter than W
	res, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Queries != 1 {
		t.Errorf("Queries = %d, want 1 (short query skipped)", res.Metrics.Queries)
	}
}

func TestBothStrandsFindsRCHomology(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randSeq(rng, 800)
	rc := string(dna.Decode(dna.ReverseComplement(dna.Encode([]byte(s)))))
	db := mkBank("db", s)
	q := mkBank("q", rc)
	opt := DefaultOptions()
	plus, err := Compare(db, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(plus.Alignments) != 0 {
		t.Errorf("single strand found %d alignments", len(plus.Alignments))
	}
	opt.BothStrands = true
	both, err := Compare(db, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Alignments) == 0 {
		t.Fatal("both strands found nothing")
	}
	if !both.Alignments[0].Minus {
		t.Error("expected minus-strand alignment")
	}
}

func TestDustMasksQueryWords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	polyA := string(make([]byte, 60))
	pa := []byte(polyA)
	for i := range pa {
		pa[i] = 'A'
	}
	db := mkBank("db", randSeq(rng, 300)+string(pa)+randSeq(rng, 300))
	q := mkBank("q", randSeq(rng, 100)+string(pa)+randSeq(rng, 100))
	on := DefaultOptions()
	off := DefaultOptions()
	off.Dust = false
	rOn, err := Compare(db, q, on)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := Compare(db, q, off)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.Metrics.WordHits >= rOff.Metrics.WordHits {
		t.Errorf("dust did not reduce word hits: %d vs %d",
			rOn.Metrics.WordHits, rOff.Metrics.WordHits)
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	db, q := testBanks(10, 1, 1, 1, 100)
	bad := []func(*Options){
		func(o *Options) { o.W = 2 },
		func(o *Options) { o.Scoring.Mismatch = 0 },
		func(o *Options) { o.UngappedXDrop = 0 },
		func(o *Options) { o.MaxEValue = -1 },
	}
	for i, f := range bad {
		opt := DefaultOptions()
		f(&opt)
		if _, err := Compare(db, q, opt); err == nil {
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

func TestDeterministicAcrossRuns(t *testing.T) {
	db, q := testBanks(11, 5, 5, 3, 500)
	r1, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Alignments) != len(r2.Alignments) {
		t.Fatalf("nondeterministic: %d vs %d", len(r1.Alignments), len(r2.Alignments))
	}
	for i := range r1.Alignments {
		if r1.Alignments[i] != r2.Alignments[i] {
			t.Fatalf("alignment %d differs", i)
		}
	}
}

func BenchmarkCompareSmallBanks(b *testing.B) {
	db, q := testBanks(20, 20, 20, 10, 400)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(db, q, opt); err != nil {
			b.Fatal(err)
		}
	}
}
