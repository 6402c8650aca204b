package blat

import (
	"math/rand"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
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

func mutate(rng *rand.Rand, s string, pSub float64) string {
	letters := []byte("ACGT")
	b := []byte(s)
	for i := range b {
		if rng.Float64() < pSub {
			b[i] = letters[rng.Intn(4)]
		}
	}
	return string(b)
}

func testBanks(seedVal int64, n1, n2, nHom, seqLen int) (*bank.Bank, *bank.Bank) {
	rng := rand.New(rand.NewSource(seedVal))
	seqs1 := make([]string, n1)
	for i := range seqs1 {
		seqs1[i] = randSeq(rng, seqLen)
	}
	seqs2 := make([]string, 0, n2)
	for i := 0; i < nHom && i < n1; i++ {
		seqs2 = append(seqs2, mutate(rng, seqs1[i], 0.03))
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

func TestTileIndexIsWTimesSmaller(t *testing.T) {
	db, q := testBanks(2, 4, 1, 0, 2000)
	_ = q
	res, err := Compare(db, mkBank("q", randSeq(rand.New(rand.NewSource(3)), 300)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Non-overlapping tiles: ≈ totalBases/W entries.
	want := db.TotalBases() / 11
	got := res.Metrics.TilesIndexed
	if got < want*8/10 || got > want*12/10 {
		t.Errorf("TilesIndexed = %d, want ≈ %d", got, want)
	}
}

func TestGuaranteedMatchLength(t *testing.T) {
	// A (2W-1)-base exact match must always be found regardless of tile
	// phase: slide a 21-base shared segment through several offsets.
	rng := rand.New(rand.NewSource(4))
	segment := randSeq(rng, 21) // 2*11 - 1
	for off := 0; off < 11; off++ {
		db := mkBank("db", randSeq(rng, 100+off)+segment+randSeq(rng, 100))
		q := mkBank("q", randSeq(rng, 50)+segment+randSeq(rng, 50))
		opt := DefaultOptions()
		opt.MinUngappedScore = 18
		opt.MaxEValue = 1e6 // disable the statistical filter for this structural test
		opt.Dust = false
		res, err := Compare(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range res.Alignments {
			if a.Matches >= 21 {
				found = true
			}
		}
		if !found {
			t.Errorf("offset %d: 2W-1 match not found", off)
		}
	}
}

func TestShortMatchesCanBeMissed(t *testing.T) {
	// BLAT's known limitation: an isolated W-length match (11 bases)
	// has no guaranteed aligned tile. Verify the engine finds strictly
	// fewer or equal alignments than ORIS on fragmented homology.
	rng := rand.New(rand.NewSource(5))
	// Heavy mutation fragments the homology into short exact runs.
	base := randSeq(rng, 2000)
	db := mkBank("db", base)
	q := mkBank("q", mutate(rng, base, 0.12))
	bres, err := Compare(db, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oOpt := core.DefaultOptions()
	ores, err := core.Compare(db, q, oOpt)
	if err != nil {
		t.Fatal(err)
	}
	var blatCols, orisCols int32
	for _, a := range bres.Alignments {
		blatCols += a.Length
	}
	for _, a := range ores.Alignments {
		orisCols += a.Length
	}
	if blatCols > orisCols {
		t.Errorf("BLAT-style covered more columns (%d) than ORIS (%d) on fragmented homology",
			blatCols, orisCols)
	}
}

func TestScanCostIsPerQueryBaseNotPerQueryScan(t *testing.T) {
	// The structural contrast with classic BLASTN: doubling the query
	// count doubles QueryPositions but leaves the db index untouched.
	rng := rand.New(rand.NewSource(6))
	db := mkBank("db", randSeq(rng, 3000))
	q1 := mkBank("q", randSeq(rng, 400))
	q2 := mkBank("q", randSeq(rng, 400), randSeq(rng, 400))
	r1, err := Compare(db, q1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compare(db, q2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Metrics.QueryPositions <= r1.Metrics.QueryPositions {
		t.Errorf("query positions did not grow: %d vs %d",
			r2.Metrics.QueryPositions, r1.Metrics.QueryPositions)
	}
	if r2.Metrics.QueryPositions > 2*r1.Metrics.QueryPositions+100 {
		t.Errorf("scan cost grew faster than query bases: %d vs 2×%d",
			r2.Metrics.QueryPositions, r1.Metrics.QueryPositions)
	}
	if r1.Metrics.TilesIndexed != r2.Metrics.TilesIndexed {
		t.Errorf("db index depends on queries: %d vs %d",
			r1.Metrics.TilesIndexed, r2.Metrics.TilesIndexed)
	}
}

func TestValidateRejectsBadOptions(t *testing.T) {
	db, q := testBanks(7, 1, 1, 1, 120)
	bad := []func(*Options){
		func(o *Options) { o.W = 2 },
		func(o *Options) { o.Scoring.Match = 0 },
		func(o *Options) { o.UngappedXDrop = 0 },
		func(o *Options) { o.MaxEValue = 0 },
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

func TestDeterministic(t *testing.T) {
	db, q := testBanks(8, 5, 5, 3, 500)
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
