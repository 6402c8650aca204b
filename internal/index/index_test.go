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
	"repro/internal/fasta"
	"repro/internal/seed"
)

// eachCode walks the directory: every code the index lists, with its
// occurrence run.
func eachCode(ix *Index, fn func(c seed.Code, occ []int32)) {
	q := only(ix)
	for i, c := range q.Directory() {
		fn(c, q.Pos[q.Offsets[i]:q.Offsets[i+1]])
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
	occ := only(ix).Occ(c)
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
	occ := only(ix).Occ(c)
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
	if only(ix).NumCodes() != len(brute) {
		t.Fatalf("index lists %d codes, brute force found %d", only(ix).NumCodes(), len(brute))
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
	for _, opts := range []Options{{W: w}, {W: w, SampleStep: 2}} {
		ix := Build(b, opts)
		brute := map[seed.Code][]int32{}
		seed.ForEach(b.Data, w, func(p int32, c seed.Code) {
			if opts.SampleStep < 2 || int(p)%opts.SampleStep == 0 {
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
	if occ := only(ix).Occ(cGGGG); len(occ) != 0 {
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
	masked := Build(b, Options{W: w, Dust: true})
	if masked.MaskedOut == 0 {
		t.Fatal("dust masked nothing")
	}
	if masked.Indexed >= plain.Indexed {
		t.Errorf("masked index not smaller: %d vs %d", masked.Indexed, plain.Indexed)
	}
	cPolyA := seed.Code(0) // AAAAAAAAAAA
	if got := len(only(masked).Occ(cPolyA)); got != 0 {
		t.Errorf("poly-A seed still has %d occurrences after masking", got)
	}
	if got := len(only(plain).Occ(cPolyA)); got == 0 {
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
	half := Build(b, Options{W: w, SampleStep: 2})
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
			for _, r := range only(half).Occ(c) {
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
		t.Errorf("%d 11-mer anchors missed", miss)
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

// proveAll proves every slot of a loaded index and returns the first
// failure, or the number of windows proven.
func proveAll(ix *Index) (int, error) {
	total := 0
	for i, c := range only(ix).Directory() {
		n, err := only(ix).Prove(int32(i), c)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// loadedFrom reassembles blocks into an index, failing the test unless
// the load's structural check accepts them.
func loadedFrom(t *testing.T, b *bank.Bank, opts Options, blocks ...BlockParts) *Index {
	t.Helper()
	ix, err := FromBlocks(b, opts, blocks)
	if err != nil {
		t.Fatalf("structural check refused the blocks: %v", err)
	}
	return ix
}

// TestCheckPartsRejectsHostileParts: the two halves of the validation
// every stored index passes must together refuse a malformed directory
// and any position that is not a seed window of its slot's code — the
// extension loops take no bounds, so a position is all that stands
// between a stored index and the bank's memory. The load's structural
// check (checkParts, through FromBlocks) refuses whatever would make a
// read leave the block: a malformed directory or offset list, a position
// outside its block's windows (position zero is the leading sentinel,
// below every block), positions out of order. A position inside its
// block whose window is not its slot's code loads, and is refused by
// the proof of its slot (Prove), which revokes the index.
func TestCheckPartsRejectsHostileParts(t *testing.T) {
	b := mkBank("ACGTACGTACGTACGT", "TTCGATCGNATCGAA")
	opts := Options{W: 4}
	good := Build(b, opts).Blocks()[0]

	corrupt := func(mutate func(bp *BlockParts)) BlockParts {
		bp := good
		bp.Codes = slices.Clone(good.Codes)
		bp.Offsets = slices.Clone(good.Offsets)
		bp.Pos = slices.Clone(good.Pos)
		mutate(&bp)
		return bp
	}

	if _, err := proveAll(loadedFrom(t, b, opts, corrupt(func(*BlockParts) {}))); err != nil {
		t.Fatalf("unmutated parts refused: %v", err)
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
	if good.Offsets[1] != 1 {
		t.Fatal("the first slot is meant to hold one occurrence: any position inside the bank is in order there")
	}
	rep := good.Offsets[slot]
	// The offset-list faults: a first offset past the first position, an
	// empty slot, a slot running backwards, a last offset short of or
	// past the positions, an offset past them in the middle, one offset
	// too few or too many.
	structural := map[string]func(bp *BlockParts){
		"unsorted-code":         func(bp *BlockParts) { bp.Codes[0], bp.Codes[1] = bp.Codes[1], bp.Codes[0] },
		"duplicate-code":        func(bp *BlockParts) { bp.Codes[1] = bp.Codes[0] },
		"code-outside-4^W":      func(bp *BlockParts) { bp.Codes[last-1] = seed.Code(seed.NumCodes(4)) },
		"first-offset":          func(bp *BlockParts) { bp.Offsets[0] = 1 },
		"flat-offset":           func(bp *BlockParts) { bp.Offsets[1] = bp.Offsets[0] },
		"descending-offset":     func(bp *BlockParts) { bp.Offsets[2] = bp.Offsets[1] - 1 },
		"last-offset-short":     func(bp *BlockParts) { bp.Offsets[last]-- },
		"last-offset-past":      func(bp *BlockParts) { bp.Offsets[last]++ },
		"offset-past-positions": func(bp *BlockParts) { bp.Offsets[slot] = int32(len(bp.Pos)) + 1 },
		"offsets-too-short":     func(bp *BlockParts) { bp.Offsets = bp.Offsets[:last] },
		"offsets-too-long":      func(bp *BlockParts) { bp.Offsets = append(bp.Offsets, bp.Offsets[last]+1) },
		"no-offsets":            func(bp *BlockParts) { bp.Offsets = nil; bp.Codes = nil },
		"indexed-mismatch":      func(bp *BlockParts) { bp.Pos = append(bp.Pos, bp.Pos[len(bp.Pos)-1]) },

		"position-zero":        func(bp *BlockParts) { bp.Pos[0] = 0 },
		"position-negative":    func(bp *BlockParts) { bp.Pos[0] = -1 },
		"position-past-data":   func(bp *BlockParts) { bp.Pos[0] = int32(len(b.Data)) },
		"positions-descending": func(bp *BlockParts) { bp.Pos[rep], bp.Pos[rep+1] = bp.Pos[rep+1], bp.Pos[rep] },
		"position-repeated":    func(bp *BlockParts) { bp.Pos[rep+1] = bp.Pos[rep] },
	}
	for name, mutate := range structural {
		if _, err := FromBlocks(b, opts, []BlockParts{corrupt(mutate)}); err == nil {
			t.Errorf("%s: hostile parts passed the structural check", name)
		}
	}
	window := map[string]func(bp *BlockParts){
		"position-past-last-window": func(bp *BlockParts) { bp.Pos[0] = int32(len(b.Data)) - 4 },
		"window-straddles-sentinel": func(bp *BlockParts) { bp.Pos[0] = end0 - 2 },
		"window-holds-invalid-base": func(bp *BlockParts) { bp.Pos[0] = lo1 + 5 },
		"window-of-another-code":    func(bp *BlockParts) { bp.Pos[0] = bp.Pos[bp.Offsets[1]] },
	}
	for name, mutate := range window {
		ix := loadedFrom(t, b, opts, corrupt(mutate))
		if _, err := only(ix).Prove(0, good.Codes[0]); err == nil || !ix.Revoked() {
			t.Errorf("%s: the proof of the hostile slot passed (revoked %v)", name, ix.Revoked())
		}
		if _, err := only(ix).Prove(int32(slot), acgt); err == nil {
			t.Errorf("%s: a revoked index proved another slot", name)
		}
	}
}

// TestSmallBankIndexIsSmall is the size gate: what an index costs to
// build and to hold is set by the bank, so a 4^W-sized array (64 MiB of
// build allocations at W=12, 16 MiB resident at W=11) cannot creep back.
func TestSmallBankIndexIsSmall(t *testing.T) {
	b := benchBankSeqs(16, 450)
	opts := Options{W: 11, Dust: true}
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
	q := only(ix)
	if want := 4*(len(q.Pos)+len(q.Codes)+len(q.Offsets)+len(q.Top)+len(q.Rank)) + 8*len(q.Bits); ix.MemoryBytes() != want {
		t.Errorf("MemoryBytes = %d, want 4·(Pos+Codes+Offsets+Top+Rank) + 8·Bits = %d: a position costs four bytes and nothing else",
			ix.MemoryBytes(), want)
	}
}

// TestLargeBankBuildScratch is the bucketed build's allocation fence:
// a build allocates the index it leaves and, as scratch, its bucketed
// words — 8 bytes a position — and little else, on one worker and on
// two, for a dusted EST db of 1,300 reads of 450 bp and for est_cold's
// 1,000-read query bank, the smallest shape the rule buckets. An
// unsorted word array, a sort's second buffer or a dense directory's
// code list cannot creep back: each would add 4 to 8 bytes a position.
func TestLargeBankBuildScratch(t *testing.T) {
	for _, b := range []*bank.Bank{benchBankSeqs(1300, 450), benchBankSeqs(1000, 450)} {
		for _, workers := range []int{1, 2} {
			opts := Options{W: 11, Dust: true, Workers: workers}
			ix := Build(b, opts)
			if topDigit(opts.normalized(), len(b.Data)) == 0 {
				t.Fatalf("a bank of %d bytes is one bucket: not a bucketed build", len(b.Data))
			}
			const runs = 4
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				ix = Build(b, opts)
			}
			runtime.ReadMemStats(&after)
			perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
			if limit := 8*ix.Indexed + ix.MemoryBytes() + 1<<20; perBuild > uint64(limit) {
				t.Errorf("%d reads, workers=%d: Build of %d windows allocates %d bytes, want ≤ 8·Indexed + MemoryBytes() + 1 MiB = %d",
					b.NumSeqs(), workers, ix.Indexed, perBuild, limit)
			}
		}
	}
}

// The window proof compares Data words against a code spread into
// bytes: for every W the spread words must hold exactly the bases
// seed.Decode gives, and every slot of a built index of any W, loaded —
// its last window ends on the bank's last base, so the short read at
// Data's tail is exercised — must prove.
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
		if last := int32(len(b.Data) - 1 - w); !slices.Contains(only(ix).Pos, last) {
			t.Fatalf("W=%d: the bank's last window %d is not indexed", w, last)
		}
		loaded := loadedFrom(t, b, Options{W: w}, ix.Blocks()[0])
		if n, err := proveAll(loaded); err != nil || n != len(only(ix).Pos) {
			t.Errorf("W=%d: built windows refused (%d of %d proven): %v", w, n, len(only(ix).Pos), err)
		}
		// One base off is another window: every occurrence of the first
		// slot moved right by one must be refused (poly-runs aside, the
		// shifted window encodes to a different code).
		bp := ix.Blocks()[0]
		bp.Pos = slices.Clone(bp.Pos)
		bp.Pos[0]++
		shifted, _ := seed.Encode(b.Data[bp.Pos[0]:], w)
		if shiftedIx, err := FromBlocks(b, Options{W: w}, []BlockParts{bp}); err == nil && shifted != bp.Codes[0] {
			if _, err := only(shiftedIx).Prove(0, bp.Codes[0]); err == nil {
				t.Errorf("W=%d: position shifted onto code %d accepted under code %d", w, shifted, bp.Codes[0])
			}
		}
	}
}

// TestOptionsKey pins what an index's identity is: options that change
// the built index never share a Key, and those that cannot change it —
// Workers and equivalent sampling spellings — always do.
func TestOptionsKey(t *testing.T) {
	base := Options{W: 8, Dust: true}
	same := []Options{
		{W: 8, Dust: true, Workers: 7},
		{W: 8, Dust: true, SampleStep: 1},
		{W: 8, Dust: true, SampleStep: 0},
	}
	for _, o := range same {
		if o.Key() != base.Key() {
			t.Errorf("%+v: Key %+v, want the Key of %+v", o, o.Key(), base.Key())
		}
	}
	distinct := []Options{
		base,
		{W: 8},
		{W: 9, Dust: true},
		{W: 8, Dust: true, SampleStep: 2},
		{W: 8, Dust: true, SampleStep: 3},
	}
	seen := map[Key]Options{}
	for _, o := range distinct {
		if prev, ok := seen[o.Key()]; ok {
			t.Errorf("%+v and %+v build different indexes but share Key %+v", prev, o, o.Key())
		}
		seen[o.Key()] = o
	}
	if ix := Build(mkBank("ACGTTGCAAGGCTTAACGG"), distinct[4]); ix.Options().Key() != distinct[4].Key() {
		t.Errorf("an index built with %+v reports Key %+v", distinct[4], ix.Options().Key())
	}
}

// TestCheckPartsMatchesReference holds the load's structural pass —
// sharded, and counting descents instead of walking each slot — to a
// plain per-slot walk, on blocks with random positions rewritten, at one
// worker and at three.
func TestCheckPartsMatchesReference(t *testing.T) {
	b := benchBankSeqs(200, 450)
	opts := Options{W: 8}
	good := Build(b, opts).Blocks()[0]
	if len(good.Pos) < minParallelData {
		t.Fatal("the bank is meant to be large enough for a sharded check")
	}
	reference := func(bp BlockParts) bool {
		for i := range bp.Codes {
			prev := int32(bp.DataLo) - 1
			for _, p := range bp.Pos[bp.Offsets[i]:bp.Offsets[i+1]] {
				if p <= prev || int(p)+opts.W > bp.DataHi {
					return false
				}
				prev = p
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(44))
	var seen [2]int // blocks the reference refuses, accepts
	for trial := 0; trial < 200; trial++ {
		bp := good
		bp.Pos = slices.Clone(good.Pos)
		for k := rng.Intn(3); k >= 0; k-- {
			i := rng.Intn(len(bp.Pos))
			switch rng.Intn(3) {
			case 0: // a neighbour's position, in this slot or the next
				if i+1 < len(bp.Pos) {
					bp.Pos[i], bp.Pos[i+1] = bp.Pos[i+1], bp.Pos[i]
				}
			case 1: // anywhere in or just outside the bank
				bp.Pos[i] = int32(rng.Intn(len(b.Data)+4) - 2)
			case 2: // one base on
				bp.Pos[i]++
			}
		}
		want := reference(bp)
		if want {
			seen[1]++
		} else {
			seen[0]++
		}
		for _, workers := range []int{1, 3} {
			o := opts
			o.Workers = workers
			if got := checkParts(b, o, &bp, nil) == nil; got != want {
				t.Fatalf("trial %d, %d workers: the check says %v, a walk of every slot %v", trial, workers, got, want)
			}
		}
	}
	if seen[0] < 20 || seen[1] < 20 {
		t.Errorf("%d refused and %d accepted blocks: the trials are meant to hold plenty of both", seen[0], seen[1])
	}
}

// TestCheckPartsBoundsShardOffsets: a sharded check keeps each shard's
// offsets inside Pos. Offsets raised by len(Pos) from the middle slot on
// still ascend up to the last one, so a check that held each offset only
// to the one before it would read Pos out of bounds before it got there.
// They are refused, at one worker (by each offset's bound, the offset at
// the shard's end) and at three (by the offsets at the shard cuts).
func TestCheckPartsBoundsShardOffsets(t *testing.T) {
	b := benchBankSeqs(200, 450)
	good := Build(b, Options{W: 8}).Blocks()[0]
	if len(good.Pos) < minParallelData {
		t.Fatal("the bank is meant to be large enough for a sharded check")
	}
	n := len(good.Codes)
	bp := good
	bp.Offsets = slices.Clone(good.Offsets)
	for i := n / 2; i < n; i++ {
		bp.Offsets[i] += int32(len(bp.Pos))
	}
	for _, workers := range []int{1, 3} {
		if err := checkParts(b, Options{W: 8, Workers: workers}, &bp, nil); err == nil {
			t.Errorf("%d workers: offsets past Pos from slot %d of %d on passed the check", workers, n/2, n)
		}
	}
}
