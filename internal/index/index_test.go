package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/seed"
)

// eachCode walks the directory: every code the index lists, with its
// occurrence run.
func eachCode(ix *Index, fn func(c seed.Code, occ []int32)) {
	for i, c := range ix.Codes {
		fn(c, ix.Pos[ix.Offsets[i]:ix.Offsets[i+1]])
	}
}

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
	occ := ix.Occ(c)
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
	eachCode(ix, func(_ seed.Code, occ []int32) { total += len(occ) })
	if total != want {
		t.Errorf("sum over chains = %d, want %d", total, want)
	}
}

func TestSeedsNeverSpanSequenceBoundaries(t *testing.T) {
	b := mkBank("AAAA", "AAAA")
	ix := Build(b, Options{W: 4})
	c, _ := seed.Encode(b.SeqCodes(0), 4)
	occ := ix.Occ(c)
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
	eachCode(ix, func(c seed.Code, occ []int32) {
		for _, p := range occ {
			got, ok := seed.Encode(b.Data[p:], w)
			if !ok || got != c {
				t.Fatalf("position %d listed under code %d but encodes to %d (ok=%v)", p, c, got, ok)
			}
		}
	})
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
	sameAsBrute(t, ix, brute)
}

// sameAsBrute asserts the index lists exactly the codes of a brute-force
// code → positions map, each with exactly its positions, in ascending
// code order.
func sameAsBrute(t *testing.T, ix *Index, brute map[seed.Code][]int32) {
	t.Helper()
	if len(ix.Codes) != len(brute) {
		t.Fatalf("index lists %d codes, brute force found %d", len(ix.Codes), len(brute))
	}
	prev := -1
	eachCode(ix, func(c seed.Code, occ []int32) {
		if int(c) <= prev {
			t.Fatalf("directory not strictly ascending at code %d", c)
		}
		prev = int(c)
		if !reflect.DeepEqual(occ, brute[c]) {
			t.Fatalf("code %d: got %v want %v", c, occ, brute[c])
		}
	})
}

// W = 15 is the widest seed the code type holds: 4^15 dense dictionary
// slots (4 GiB) never allowed a test to build it; the directory costs
// what the bank holds. Three 11-bit digits in the build's sort.
func TestBuildW15MatchesBruteForce(t *testing.T) {
	const w = 15
	b := randomBank(15, 6, 3000)
	for _, opts := range []Options{{W: w}, {W: w, SampleStep: 2, SamplePhase: 1}} {
		ix := Build(b, opts)
		brute := map[seed.Code][]int32{}
		seed.ForEach(b.Data, w, func(p int32, c seed.Code) {
			if opts.SampleStep < 2 || int(p)%opts.SampleStep == opts.SamplePhase {
				brute[c] = append(brute[c], p)
			}
		})
		sameAsBrute(t, ix, brute)
		if ix.Indexed == 0 {
			t.Fatal("empty W=15 index: the test bank holds no 15-mers")
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
	if got := len(masked.Occ(cPolyA)); got != 0 {
		t.Errorf("poly-A seed still has %d occurrences after masking", got)
	}
	if got := len(plain.Occ(cPolyA)); got == 0 {
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

// TestFromPartsRejectsHostileParts: the reassembly constructor must
// refuse a malformed directory (Codes/Offsets) and any position that is
// not a seed window of its slot's code — the extension loops take no
// bounds, so a position is all that stands between a stored index and
// the bank's memory.
func TestFromPartsRejectsHostileParts(t *testing.T) {
	b := mkBank("ACGTACGTACGTACGT", "TTCGATCGNATCGAA")
	built := Build(b, Options{W: 4})
	good := built.Parts()

	corrupt := func(mutate func(p *Parts)) error {
		p := good
		p.Codes = slices.Clone(good.Codes)
		p.Offsets = slices.Clone(good.Offsets)
		p.Pos = slices.Clone(good.Pos)
		mutate(&p)
		_, err := FromParts(b, Options{W: 4}, p)
		return err
	}

	if err := corrupt(func(p *Parts) {}); err != nil {
		t.Fatalf("unmutated parts rejected: %v", err)
	}
	last := len(good.Codes)
	_, end0 := b.SeqBounds(0)
	lo1, _ := b.SeqBounds(1)
	// ACGT occurs four times in the first record.
	acgt, _ := seed.Encode([]byte{0, 1, 3, 2}, 4)
	slot, found := slices.BinarySearch(good.Codes, acgt)
	if !found || good.Offsets[slot+1]-good.Offsets[slot] < 2 {
		t.Fatal("test bank lost its repeated ACGT")
	}
	rep := good.Offsets[slot]
	cases := map[string]func(p *Parts){
		"unsorted-code":     func(p *Parts) { p.Codes[0], p.Codes[1] = p.Codes[1], p.Codes[0] },
		"duplicate-code":    func(p *Parts) { p.Codes[1] = p.Codes[0] },
		"code-outside-4^W":  func(p *Parts) { p.Codes[last-1] = seed.Code(seed.NumCodes(4)) },
		"first-offset":      func(p *Parts) { p.Offsets[0] = 1 },
		"flat-offset":       func(p *Parts) { p.Offsets[1] = p.Offsets[0] },
		"descending-offset": func(p *Parts) { p.Offsets[1] = p.Offsets[2] + 1 },
		"last-offset":       func(p *Parts) { p.Offsets[last]-- },
		"offsets-too-short": func(p *Parts) { p.Offsets = p.Offsets[:last] },
		"offsets-too-long":  func(p *Parts) { p.Offsets = append(p.Offsets, p.Offsets[last]) },
		"no-offsets":        func(p *Parts) { p.Offsets = nil; p.Codes = nil },
		"indexed-mismatch":  func(p *Parts) { p.Indexed++ },

		"position-zero":             func(p *Parts) { p.Pos[0] = 0 },
		"position-negative":         func(p *Parts) { p.Pos[0] = -1 },
		"position-past-last-window": func(p *Parts) { p.Pos[0] = int32(len(b.Data)) - 4 },
		"position-past-data":        func(p *Parts) { p.Pos[0] = int32(len(b.Data)) },
		"window-straddles-sentinel": func(p *Parts) { p.Pos[0] = end0 - 2 },
		"window-holds-invalid-base": func(p *Parts) { p.Pos[0] = lo1 + 5 },
		"window-of-another-code":    func(p *Parts) { p.Pos[0] = p.Pos[p.Offsets[1]] },
		"positions-descending":      func(p *Parts) { p.Pos[rep], p.Pos[rep+1] = p.Pos[rep+1], p.Pos[rep] },
		"position-repeated":         func(p *Parts) { p.Pos[rep+1] = p.Pos[rep] },
	}
	for name, mutate := range cases {
		if err := corrupt(mutate); err == nil {
			t.Errorf("%s: hostile parts accepted", name)
		}
	}
}

// TestSmallBankIndexIsSmall is the size gate: what an index costs to
// build and to hold is set by the bank, so a 4^W-sized array (64 MiB of
// build allocations at W=12, 16 MiB resident at W=11) cannot creep back.
func TestSmallBankIndexIsSmall(t *testing.T) {
	b := benchBankSeqs(16, 450)
	opts := Options{W: 11, Dust: dust.New(0, 0)}
	const runs = 8
	var ix *Index
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ix = Build(b, opts)
	}
	runtime.ReadMemStats(&after)
	if perBuild := (after.TotalAlloc - before.TotalAlloc) / runs; perBuild >= 1<<20 {
		t.Errorf("Build of a %d-byte bank allocates %d bytes, want < 1 MiB", len(b.Data), perBuild)
	}
	if ix.MemoryBytes() > 12*len(b.Data) {
		t.Errorf("MemoryBytes = %d for a %d-byte bank, want ≤ 12 bytes per Data byte", ix.MemoryBytes(), len(b.Data))
	}
	if want := 4 * (len(ix.Pos) + len(ix.Codes) + len(ix.Offsets) + len(ix.Top)); ix.MemoryBytes() != want {
		t.Errorf("MemoryBytes = %d, want 4·(Pos+Codes+Offsets+Top) = %d: a position costs four bytes and nothing else",
			ix.MemoryBytes(), want)
	}
}

// The window check compares Data words against a code spread into
// bytes: for every W the spread words must hold exactly the bases
// seed.Decode gives, and a built index of any W — its last window ends
// on the bank's last base, so the short read at Data's tail is
// exercised — must pass.
func TestWindowCheckAgreesWithSeedCoding(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for w := 1; w <= seed.MaxW; w++ {
		for trial := 0; trial < 200; trial++ {
			c := seed.Code(rng.Intn(seed.NumCodes(w)))
			var got [16]byte
			binary.LittleEndian.PutUint64(got[:], spreadBases(uint64(c)))
			binary.LittleEndian.PutUint64(got[8:], spreadBases(uint64(c)>>16))
			if want := seed.Decode(c, w); !bytes.Equal(got[:w], want) || !bytes.Equal(got[w:], make([]byte, 16-w)) {
				t.Fatalf("W=%d code %d spreads to %v, want %v then zeros", w, c, got, want)
			}
		}
		seqs := make([]string, 3)
		for i := range seqs {
			s := make([]byte, 20+rng.Intn(60))
			for j := range s {
				s[j] = "ACGT"[rng.Intn(4)]
			}
			seqs[i] = string(s)
		}
		b := mkBank(seqs...)
		ix := Build(b, Options{W: w})
		if last := int32(len(b.Data) - 1 - w); !slices.Contains(ix.Pos, last) {
			t.Fatalf("W=%d: the bank's last window %d is not indexed", w, last)
		}
		if _, err := FromParts(b, Options{W: w}, ix.Parts()); err != nil {
			t.Errorf("W=%d: built parts rejected: %v", w, err)
		}
		// One base off is another window: every occurrence of the first
		// slot moved right by one must be refused (poly-runs aside, the
		// shifted window encodes to a different code).
		p := ix.Parts()
		p.Pos = slices.Clone(p.Pos)
		p.Pos[0]++
		shifted, _ := seed.Encode(b.Data[p.Pos[0]:], w)
		if _, err := FromParts(b, Options{W: w}, p); err == nil && shifted != p.Codes[0] {
			t.Errorf("W=%d: position shifted onto code %d accepted under code %d", w, shifted, p.Codes[0])
		}
	}
}
