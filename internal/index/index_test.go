package index

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/seed"
)

func mkBank(seqs ...string) *bank.Bank {
	recs := make([]*fasta.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fasta.Record{ID: string(rune('a' + i)), Seq: []byte(s)}
	}
	return bank.New("t", recs)
}

func TestChainsAscendingAndComplete(t *testing.T) {
	b := mkBank("ACGTACGTACGT")
	ix := Build(b, Options{W: 4})
	// Every distinct 4-mer of the sequence occurs 3 or 2 times.
	c, _ := seed.Encode(b.SeqCodes(0), 4) // code of "ACGT"
	occ := ix.Occurrences(c)
	if len(occ) != 3 {
		t.Fatalf("ACGT occurrences = %v", occ)
	}
	for i := 1; i < len(occ); i++ {
		if occ[i] <= occ[i-1] {
			t.Fatalf("chain not ascending: %v", occ)
		}
	}
}

func TestIndexedCountMatchesValidWindows(t *testing.T) {
	b := mkBank("ACGTACGT", "TTTTT", "AC")
	ix := Build(b, Options{W: 4})
	want := seed.Count(b.Data, 4)
	if ix.Indexed != want {
		t.Errorf("Indexed = %d, want %d", ix.Indexed, want)
	}
	// "AC" is too short for a window; windows never span sentinels.
	total := 0
	for c := 0; c < ix.NumCodes(); c++ {
		total += ix.CountOccurrences(seed.Code(c))
	}
	if total != want {
		t.Errorf("sum over chains = %d, want %d", total, want)
	}
}

func TestSeedsNeverSpanSequenceBoundaries(t *testing.T) {
	b := mkBank("AAAA", "AAAA")
	ix := Build(b, Options{W: 4})
	c, _ := seed.Encode(b.SeqCodes(0), 4)
	occ := ix.Occurrences(c)
	if len(occ) != 2 {
		t.Fatalf("AAAA occurrences = %v, want one per sequence", occ)
	}
	for _, p := range occ {
		if b.SeqAt(p) != b.SeqAt(p+3) {
			t.Errorf("seed at %d spans a boundary", p)
		}
	}
}

func TestEveryOccurrenceHasCorrectCode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	letters := []byte("ACGTN")
	var seqs []string
	for i := 0; i < 5; i++ {
		n := 50 + rng.Intn(100)
		sb := make([]byte, n)
		for j := range sb {
			sb[j] = letters[rng.Intn(len(letters))]
		}
		seqs = append(seqs, string(sb))
	}
	b := mkBank(seqs...)
	const w = 5
	ix := Build(b, Options{W: w})
	for c := 0; c < ix.NumCodes(); c++ {
		for _, p := range ix.Occ(seed.Code(c)) {
			got, ok := seed.Encode(b.Data[p:], w)
			if !ok || got != seed.Code(c) {
				t.Fatalf("position %d listed under code %d but encodes to %d (ok=%v)", p, c, got, ok)
			}
		}
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	letters := []byte("ACGT")
	sb := make([]byte, 400)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	b := mkBank(string(sb))
	const w = 3
	ix := Build(b, Options{W: w})
	brute := map[seed.Code][]int32{}
	seed.ForEach(b.Data, w, func(p int32, c seed.Code) {
		brute[c] = append(brute[c], p)
	})
	for c := 0; c < ix.NumCodes(); c++ {
		got := ix.Occurrences(seed.Code(c))
		want := brute[seed.Code(c)]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("code %d: got %v want %v", c, got, want)
		}
	}
}

func TestAbsentSeedHeadIsMinusOne(t *testing.T) {
	b := mkBank("AAAA")
	ix := Build(b, Options{W: 4})
	cGGGG, _ := seed.Encode([]byte{3, 3, 3, 3}, 4)
	if occ := ix.Occ(cGGGG); len(occ) != 0 {
		t.Errorf("GGGG occurrences = %v, want none", occ)
	}
	if s, e := ix.OccRange(cGGGG); s != e {
		t.Errorf("GGGG range = [%d,%d), want empty", s, e)
	}
}

func TestDustMaskingRemovesLowComplexitySeeds(t *testing.T) {
	// Poly-A tract embedded in a random context: its seeds must vanish.
	rng := rand.New(rand.NewSource(2))
	letters := []byte("ACGT")
	mk := func(n int) string {
		x := make([]byte, n)
		for i := range x {
			x[i] = letters[rng.Intn(4)]
		}
		return string(x)
	}
	s := mk(300) + strings.Repeat("A", 150) + mk(300)
	b := mkBank(s)
	const w = 11
	plain := Build(b, Options{W: w})
	masked := Build(b, Options{W: w, Dust: dust.New(0, 0)})
	if masked.MaskedOut == 0 {
		t.Fatal("dust masked nothing")
	}
	if masked.Indexed >= plain.Indexed {
		t.Errorf("masked index not smaller: %d vs %d", masked.Indexed, plain.Indexed)
	}
	cPolyA := seed.Code(0) // AAAAAAAAAAA
	if got := masked.CountOccurrences(cPolyA); got != 0 {
		t.Errorf("poly-A seed still has %d occurrences after masking", got)
	}
	if got := plain.CountOccurrences(cPolyA); got == 0 {
		t.Error("unmasked index should contain the poly-A seed")
	}
}

func TestAsymmetricSamplingHalvesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	letters := []byte("ACGT")
	sb := make([]byte, 4000)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	b := mkBank(string(sb))
	full := Build(b, Options{W: 10})
	half := Build(b, Options{W: 10, SampleStep: 2})
	lo, hi := full.Indexed/2-2, full.Indexed/2+2
	if half.Indexed < lo || half.Indexed > hi {
		t.Errorf("half index has %d entries, full %d", half.Indexed, full.Indexed)
	}
	if half.SampledOut+half.Indexed != full.Indexed {
		t.Errorf("sampled(%d)+indexed(%d) != full(%d)", half.SampledOut, half.Indexed, full.Indexed)
	}
}

// Paper §3.4: with 10-nt half-word indexing on ONE bank, every 11-nt
// match is still anchored, because an 11-mer contains 10-mer seeds at two
// consecutive positions, one of which survives the parity sampling.
func TestAsymmetricSamplingCoversAll11ntMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	letters := []byte("ACGT")
	sb := make([]byte, 3000)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	b := mkBank(string(sb))
	const w = 10
	for _, phase := range []int{0, 1} {
		half := Build(b, Options{W: w, SampleStep: 2, SamplePhase: phase})
		// For every position p that starts an 11-mer, one of p, p+1 must
		// be in the occurrence list of its 10-mer code.
		miss := 0
		seed.ForEach(b.Data, w+1, func(p int32, _ seed.Code) {
			found := false
			for _, q := range []int32{p, p + 1} {
				c, ok := seed.Encode(b.Data[q:], w)
				if !ok {
					continue
				}
				for _, r := range half.Occ(c) {
					if r == q {
						found = true
						break
					}
				}
				if found {
					break
				}
			}
			if !found {
				miss++
			}
		})
		if miss != 0 {
			t.Errorf("phase %d: %d 11-mer anchors missed", phase, miss)
		}
	}
}

func TestBuildPanicsOnBadW(t *testing.T) {
	b := mkBank("ACGT")
	for _, w := range []int{0, -3, seed.MaxW + 1} {
		func() {
			defer func() { recover() }()
			Build(b, Options{W: w})
			t.Errorf("W=%d did not panic", w)
		}()
	}
}

func TestMemoryBytesMatchesPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	letters := []byte("ACGT")
	sb := make([]byte, 100000)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	b := mkBank(string(sb))
	ix := Build(b, Options{W: 11})
	// Paper: index structure ≈ 4N bytes (+ dictionary). Next alone is 4N.
	if ix.MemoryBytes() < 4*b.TotalBases() {
		t.Errorf("MemoryBytes = %d below 4N", ix.MemoryBytes())
	}
}

func BenchmarkBuildW11_1Mb(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	letters := []byte("ACGT")
	sb := make([]byte, 1<<20)
	for i := range sb {
		sb[i] = letters[rng.Intn(4)]
	}
	bk := mkBank(string(sb))
	b.SetBytes(int64(len(sb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(bk, Options{W: 11})
	}
}

// TestFromPartsRejectsHostileSidecars: the reassembly constructor must
// refuse sidecar data the hot extension loops would trust as scan
// bounds, not just malformed Starts/Pos.
func TestFromPartsRejectsHostileSidecars(t *testing.T) {
	b := mkBank("ACGTACGTACGTACGT", "TTCGATCGATCGAA")
	built := Build(b, Options{W: 4})
	good := built.Parts()

	corrupt := func(mutate func(p *Parts)) error {
		p := good
		p.Pos = append([]int32(nil), good.Pos...)
		p.OccSeq = append([]int32(nil), good.OccSeq...)
		p.OccLo = append([]int32(nil), good.OccLo...)
		p.OccHi = append([]int32(nil), good.OccHi...)
		mutate(&p)
		_, err := FromParts(b, Options{W: 4}, p)
		return err
	}

	if err := corrupt(func(p *Parts) {}); err != nil {
		t.Fatalf("unmutated parts rejected: %v", err)
	}
	cases := map[string]func(p *Parts){
		"seq-out-of-range":   func(p *Parts) { p.OccSeq[0] = 99 },
		"negative-seq":       func(p *Parts) { p.OccSeq[0] = -1 },
		"hi-past-data":       func(p *Parts) { p.OccHi[0] = int32(len(b.Data)) + 100 },
		"lo-above-pos":       func(p *Parts) { p.OccLo[0] = p.Pos[0] + 1 },
		"pos-window-past-hi": func(p *Parts) { p.Pos[0] = p.OccHi[0] - 1 },
	}
	for name, mutate := range cases {
		if err := corrupt(mutate); err == nil {
			t.Errorf("%s: hostile sidecar accepted", name)
		}
	}
}
