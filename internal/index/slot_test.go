package index

import (
	"encoding/binary"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bank"
	"repro/internal/seed"
)

// dirOf is a part that is only a directory: codes (ascending, below
// 4^w) in the form asked for, whatever their number — the presence
// bitmap and rank when dense, else Codes and Top — and Offsets of the
// length that makes NumCodes right, which is all Slot reads.
func dirOf(codes []seed.Code, w int, dense bool) *Part {
	q := &Part{Offsets: make([]int32, len(codes)+1)}
	if dense {
		q.Bits = presenceBitmap(codes, w)
		q.Rank = rankOf(q.Bits)
	} else {
		q.Codes = codes
		q.Top, q.topShift = topDirectory(codes, w)
	}
	return q
}

// presenceBitmap is the presence bitmap of a code list below 4^w (see
// Part.Bits): the dense directory of the same codes.
func presenceBitmap(codes []seed.Code, w int) []uint64 {
	bitmap := make([]uint64, (seed.NumCodes(w)+63)/64)
	for _, c := range codes {
		bitmap[c/64] |= 1 << (c % 64)
	}
	return bitmap
}

// checkLookup states what the directory of part ix, at seed length w,
// is: the codes listed, in the form their number calls for
// (denseDirectory) when wantForm is true — a dense part holding the
// bitmap checkBitmap describes and no code list, a sparse one the list
// and the Top checkTop describes.
func checkLookup(t testing.TB, ix *Part, w int, codes []seed.Code, wantForm bool) {
	t.Helper()
	if ix.NumCodes() != len(codes) {
		t.Fatalf("W=%d: NumCodes() = %d, the directory lists %d", w, ix.NumCodes(), len(codes))
	}
	if wantForm && ix.Dense() != denseDirectory(len(codes), w) {
		t.Fatalf("W=%d, %d codes: Dense() = %v, the threshold says %v", w, len(codes), ix.Dense(), !ix.Dense())
	}
	if !slices.Equal(ix.Directory(), codes) {
		t.Fatalf("W=%d, %d codes: Directory() lists %d codes, not the directory", w, len(codes), len(ix.Directory()))
	}
	if ix.Dense() {
		if ix.Top != nil || ix.Codes != nil {
			t.Fatalf("W=%d, %d codes: a dense index carries Top (%d entries) or Codes (%d)", w, len(codes), len(ix.Top), len(ix.Codes))
		}
		checkBitmap(t, ix, w, codes)
	} else {
		if ix.Bits != nil || ix.Rank != nil {
			t.Fatalf("W=%d, %d codes: a sparse index carries a bitmap", w, len(codes))
		}
		if !slices.Equal(ix.Codes, codes) {
			t.Fatalf("W=%d, %d codes: a sparse index's Codes are not the directory", w, len(codes))
		}
		checkTop(t, ix, w)
	}
}

// checkBitmap states what Bits and Rank are: one bit per code of
// [0, 4^W), set exactly for the listed codes, and one Rank entry per
// eight words counting the codes below its line.
func checkBitmap(t testing.TB, ix *Part, w int, codes []seed.Code) {
	t.Helper()
	space := seed.NumCodes(w)
	if want := (space + 63) / 64; len(ix.Bits) != want || len(ix.Rank) != (want+lineWords-1)/lineWords {
		t.Fatalf("W=%d: %d bitmap words and %d rank entries, want %d and %d",
			w, len(ix.Bits), len(ix.Rank), want, (want+lineWords-1)/lineWords)
	}
	k := 0
	for wd, x := range ix.Bits {
		if wd%lineWords == 0 && int(ix.Rank[wd/lineWords]) != k {
			t.Fatalf("W=%d: Rank[%d] = %d, %d codes lie below its line", w, wd/lineWords, ix.Rank[wd/lineWords], k)
		}
		for ; x != 0; x &= x - 1 {
			c := seed.Code(64*wd + bits.TrailingZeros64(x))
			if k >= len(codes) || codes[k] != c {
				t.Fatalf("W=%d: bit %d is set, the directory's slot %d is not that code", w, c, k)
			}
			k++
		}
	}
	if k != len(codes) {
		t.Fatalf("W=%d: %d bits set for %d codes", w, k, len(codes))
	}
}

// checkSlots holds ix.Slot, and ix.Slots a batch at a time, to
// slices.BinarySearch of its directory codes on the probes that can tell
// them apart: every listed code and its two neighbours, both ends of the
// code space, the first codes outside it, and whatever extra is given —
// on a dense index and a sparse one alike.
func checkSlots(t testing.TB, ix *Part, w int, codes []seed.Code, extra ...seed.Code) {
	t.Helper()
	space := seed.Code(seed.NumCodes(w))
	probes := append([]seed.Code{0, space - 1, space, space + 1, 1<<32 - 1}, extra...)
	for _, c := range codes {
		probes = append(probes, c-1, c, c+1)
	}
	for batch := range slices.Chunk(probes, SlotBatch) {
		var slots [SlotBatch]int32
		ix.Slots(batch, slots[:len(batch)])
		for i, c := range batch {
			wantSlot, wantFound := slices.BinarySearch(codes, c)
			if slot, found := ix.Slot(c); slot != wantSlot || found != wantFound {
				t.Fatalf("W=%d, %d codes: Slot(%d) = %d, %v; BinarySearch says %d, %v",
					w, len(codes), c, slot, found, wantSlot, wantFound)
			}
			if !wantFound {
				wantSlot = -1
			}
			if int(slots[i]) != wantSlot {
				t.Fatalf("W=%d, %d codes: Slots resolves %d (entry %d of %d) to %d, want %d",
					w, len(codes), c, i, len(batch), slots[i], wantSlot)
			}
		}
	}
}

// checkTop states what Top is: 2^k+1 non-decreasing entries from 0 to
// len(Codes), bucket h holding exactly the codes whose top bits are h,
// and no more than an eighth of the directory in size.
func checkTop(t testing.TB, ix *Part, w int) {
	t.Helper()
	n := len(ix.Top) - 1
	if n < 1 || n&(n-1) != 0 || ix.Top[0] != 0 || int(ix.Top[n]) != len(ix.Codes) {
		t.Fatalf("W=%d, %d codes: Top has %d entries from %d to %d", w, len(ix.Codes), len(ix.Top), ix.Top[0], ix.Top[n])
	}
	if len(ix.Top) > len(ix.Codes)/8+2 {
		t.Errorf("W=%d: |Top| = %d for %d codes, want ≤ |Codes|/8 + 2", w, len(ix.Top), len(ix.Codes))
	}
	for h := 0; h < n; h++ {
		if ix.Top[h] > ix.Top[h+1] {
			t.Fatalf("W=%d: Top decreases at %d", w, h)
		}
		for _, c := range ix.Codes[ix.Top[h]:ix.Top[h+1]] {
			if int(c>>ix.topShift) != h {
				t.Fatalf("W=%d: code %d in bucket %d, its top bits are %d", w, c, h, c>>ix.topShift)
			}
		}
	}
}

// TestSlotMatchesBinarySearch: the point lookup agrees with a binary
// search of the whole directory, slot and found, on every shape of
// directory the bucket or rank arithmetic could get wrong, through Top
// and through the bitmap alike. The bitmap is built here at W ≤ 13 (an
// 8 MB bitmap; W = 15's is 128 MB, and its arithmetic is the same).
func TestSlotMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, w := range []int{4, 11, 13, 15} {
		space := seed.NumCodes(w)
		random := func(n int) []seed.Code {
			set := map[seed.Code]bool{}
			for len(set) < n {
				set[seed.Code(rng.Intn(space))] = true
			}
			return slices.Sorted(maps.Keys(set))
		}
		// Every code of one bucket and nothing else: the densest a bucket
		// gets, with every other bucket empty on both sides of it.
		clustered := func(n, at int) []seed.Code {
			out := make([]seed.Code, n)
			for i := range out {
				out[i] = seed.Code(at + i)
			}
			return out
		}
		few := min(200, space/2)
		for _, tc := range []struct {
			name  string
			codes []seed.Code
		}{
			{"empty", nil},
			{"single", []seed.Code{seed.Code(space / 3)}},
			{"single zero", []seed.Code{0}},
			{"single max", []seed.Code{seed.Code(space - 1)}},
			{"ends", []seed.Code{0, seed.Code(space - 1)}},
			{"bucket size", random(min(topBucket, space/2))},
			{"bucket size + 1", random(min(topBucket+1, space/2))},
			{"random sparse", random(few)},
			{"random dense", random(min(5000, space/2))},
			{"random with max", slices.Compact(append(random(few), seed.Code(space-1)))},
			{"clustered low", clustered(few, 0)},
			{"clustered high", clustered(few, space-few)},
			{"clustered middle", clustered(few, space/2-7)},
			{"prefix of space", clustered(min(space, 1<<12), 0)},
			{"line edges", lineEdges(w)},
		} {
			name, codes := tc.name, tc.codes
			if !slices.IsSorted(codes) {
				t.Fatalf("W=%d %s: test directory not ascending", w, name)
			}
			extra := make([]seed.Code, 64)
			for i := range extra {
				extra[i] = seed.Code(rng.Intn(space))
			}
			for _, dense := range []bool{false, true} {
				if dense && w > 13 {
					continue
				}
				q := dirOf(codes, w, dense)
				checkLookup(t, q, w, codes, false)
				checkSlots(t, q, w, codes, extra...)
			}
		}
	}
}

// lineEdges are the codes at bit 0 and bit 63 of the first and last
// words of the first, second and last Rank lines of the 4^w code space
// (fewer when the space is smaller than a line).
func lineEdges(w int) []seed.Code {
	words := (seed.NumCodes(w) + 63) / 64
	set := map[seed.Code]bool{}
	for _, wd := range []int{0, lineWords - 1, lineWords, 2*lineWords - 1, words - lineWords, words - 1} {
		if wd < 0 || wd >= words {
			continue
		}
		for _, c := range []int{64 * wd, 64*wd + 63} {
			if c < seed.NumCodes(w) {
				set[seed.Code(c)] = true
			}
		}
	}
	return slices.Sorted(maps.Keys(set))
}

// TestConstructorsDeriveTheSameLookup: every way an index comes to
// exist — Build and FromBlocks (one block and several) — derives, for
// each part, the same directory in the form the part's own size calls
// for: the same bitmap and rank and no code list on a dense part, the
// same Codes and Top on a sparse one, on banks either side of the
// threshold (two rows at W = 11 straddle it). A real bank's directory
// then resolves like any other, part by part. At W = 15 only the sparse
// side is built: a dense W = 15 directory holds over 33 M codes.
func TestConstructorsDeriveTheSameLookup(t *testing.T) {
	for _, tc := range []struct {
		w     int
		b     *bank.Bank
		dense bool
	}{
		{4, mkBank("ACGTACGTAC", "TTTTTTT", "ACGTA"), false},
		{4, benchBankSeqs(40, 450), true},
		{11, benchBankSeqs(40, 450), false},
		{11, benchBankSeqs(290, 450), false},
		{11, benchBankSeqs(310, 450), true},
		{15, benchBankSeqs(40, 450), false},
	} {
		opts := Options{W: tc.w}
		built := Build(tc.b, opts)
		whole, err := BuildBlock(tc.b, opts, 0, tc.b.NumSeqs())
		if err != nil {
			t.Fatal(err)
		}
		codes := whole.Codes
		q := only(built)
		if q.Dense() != tc.dense {
			t.Fatalf("W=%d, %d codes: Dense() = %v, the row is meant to be %v", tc.w, len(codes), q.Dense(), tc.dense)
		}
		checkLookup(t, q, tc.w, codes, true)
		checkSlots(t, q, tc.w, codes)
		// MemoryBytes counts what the index holds exactly: Offsets and Pos,
		// and the smaller of the directory's two forms — Codes and Top,
		// 4n + 4·(2^topBits(n)+1) bytes, or the bitmap and rank, 4^W/8 +
		// 4^W/128 bytes (whole lines from W = 5 on).
		space := seed.NumCodes(tc.w)
		sparse := 4*len(codes) + 4*(1<<topBits(len(codes))+1)
		lookup := 4 * (len(q.Codes) + len(q.Top))
		if tc.dense {
			lookup = 8*len(q.Bits) + 4*len(q.Rank)
			if tc.w >= 5 && (lookup != space/8+space/128 || lookup > sparse) {
				t.Errorf("W=%d: the bitmap and rank take %d bytes, want 4^W/8 + 4^W/128 = %d, at most the sparse form's %d",
					tc.w, lookup, space/8+space/128, sparse)
			}
		} else if lookup != sparse || tc.w >= 5 && lookup >= space/8+space/128 {
			t.Errorf("W=%d: Codes and Top take %d bytes, want %d, under the bitmap and rank's %d",
				tc.w, lookup, sparse, space/8+space/128)
		}
		if want := 4*(len(q.Pos)+len(q.Offsets)) + lookup; built.MemoryBytes() != want {
			t.Errorf("W=%d: MemoryBytes = %d, want %d", tc.w, built.MemoryBytes(), want)
		}
		oneBlock, err := FromBlocks(tc.b, opts, built.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := FromBlocks(tc.b, opts, tileBlocks(t, tc.b, opts, []int{1, 7, 23}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{oneBlock, tiled} {
			sameIndexT(t, built, ix)
			for i := range ix.Parts() {
				p := &ix.Parts()[i]
				bp, err := BuildBlock(tc.b, opts, p.SeqLo, p.SeqHi)
				if err != nil {
					t.Fatal(err)
				}
				checkLookup(t, p, tc.w, bp.Codes, true)
				checkSlots(t, p, tc.w, bp.Codes)
			}
		}
	}
}

// proofBytes is what a loaded part's proof bits hold, one a slot; a
// built index has none.
func proofBytes(ix *Index, q *Part) int {
	if !ix.Loaded() {
		return 0
	}
	return 8 * ((q.NumCodes() + 63) / 64)
}

// TestDenseIndexHoldsNoCodeList: a dense part, however its index came
// to exist, holds Offsets, Pos, Bits and Rank and, loaded, its proof
// bits, and nothing else — Codes is nil — and a sparse one holds no
// bitmap; MemoryBytes is exactly what the parts hold, 4·(Offsets + Pos
// + Rank + Codes + Top) + 8·Bits, plus one bit a slot when loaded; and
// the block a save writes of each part, a dense directory regenerated
// from the bitmap, is the block BuildBlock makes over the part's range.
// A built index, and one loaded from one block, is one dense part.
func TestDenseIndexHoldsNoCodeList(t *testing.T) {
	for _, tc := range []struct {
		w    int
		b    *bank.Bank
		opts Options
	}{
		{4, benchBankSeqs(40, 450), Options{W: 4}},
		{8, benchBankSeqs(60, 450), Options{W: 8, Dust: true}},
		{11, benchBankSeqs(310, 450), Options{W: 11}},
		{11, benchBankSeqs(700, 450), Options{W: 11, SampleStep: 2}},
	} {
		whole, err := BuildBlock(tc.b, tc.opts, 0, tc.b.NumSeqs())
		if err != nil {
			t.Fatal(err)
		}
		built := Build(tc.b, tc.opts)
		loaded, err := FromBlocks(tc.b, tc.opts, []BlockParts{whole})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := FromBlocks(tc.b, tc.opts, tileBlocks(t, tc.b, tc.opts, []int{3, 17}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{built, loaded} {
			if q := only(ix); !q.Dense() {
				t.Fatalf("W=%d, %d codes: a one-part index of the whole bank is not dense", tc.w, q.NumCodes())
			}
		}
		for _, ix := range []*Index{built, loaded, tiled} {
			want := 0
			blocks := ix.Blocks()
			for i := range ix.Parts() {
				q := &ix.Parts()[i]
				bp, err := BuildBlock(tc.b, tc.opts, q.SeqLo, q.SeqHi)
				if err != nil {
					t.Fatal(err)
				}
				if q.Dense() != denseDirectory(len(bp.Codes), tc.w) {
					t.Fatalf("W=%d, part %d of %d codes: Dense() = %v, its size says %v", tc.w, i, q.NumCodes(), q.Dense(), !q.Dense())
				}
				if q.Dense() && (q.Codes != nil || q.Top != nil) || !q.Dense() && (q.Bits != nil || q.Rank != nil) {
					t.Fatalf("W=%d, part %d of %d codes: dense %v, Codes %d, Top %d, Bits %d — want a dense part with no list, a sparse one with no bitmap",
						tc.w, i, q.NumCodes(), q.Dense(), len(q.Codes), len(q.Top), len(q.Bits))
				}
				want += 4*(len(q.Offsets)+len(q.Pos)+len(q.Rank)+len(q.Codes)+len(q.Top)) + 8*len(q.Bits) + proofBytes(ix, q)
				got := blocks[i]
				if got.SeqLo != bp.SeqLo || got.SeqHi != bp.SeqHi || got.DataLo != bp.DataLo || got.DataHi != bp.DataHi ||
					got.MaskedOut != bp.MaskedOut || got.SampledOut != bp.SampledOut ||
					!slices.Equal(got.Codes, bp.Codes) || !slices.Equal(got.Offsets, bp.Offsets) || !slices.Equal(got.Pos, bp.Pos) {
					t.Errorf("W=%d, part %d of %d codes: Blocks() differs from BuildBlock over the part's range", tc.w, i, q.NumCodes())
				}
			}
			if ix.MemoryBytes() != want {
				t.Errorf("W=%d: MemoryBytes = %d, want 4·(Offsets+Pos+Rank+Codes+Top) + 8·Bits + the proof bits over the parts = %d", tc.w, ix.MemoryBytes(), want)
			}
		}
		if b := built.Blocks(); len(b) != 1 || b[0].SeqHi != whole.SeqHi || !slices.Equal(b[0].Codes, whole.Codes) {
			t.Errorf("W=%d: a built index saves as %d blocks, want the one BuildBlock makes over the whole bank", tc.w, len(b))
		}
	}
}

// TestDenseThresholdIsTheMemoryCrossover: a directory is dense exactly
// when its sparse form — 4 bytes a code of Codes and 4·(2^topBits(n)+1)
// of Top — takes at least the bitmap and rank's bytes, which makes the
// threshold 4^W/32 − 1 codes; checked either side of it and across the
// range at every W from 3 on, where the bitmap is whole words.
func TestDenseThresholdIsTheMemoryCrossover(t *testing.T) {
	for w := 3; w <= seed.MaxW; w++ {
		space := seed.NumCodes(w)
		words := (space + 63) / 64
		bitmap := 8*words + 4*((words+lineWords-1)/lineWords)
		sparse := func(n int) int { return 4*n + 4*(1<<topBits(n)+1) }
		threshold := space/32 - 1
		if sparse(threshold-1) >= bitmap || sparse(threshold) < bitmap {
			t.Errorf("W=%d: the sparse form of %d codes takes %d bytes and of %d codes %d, against the bitmap's %d: the crossover is not 4^W/32 − 1",
				w, threshold-1, sparse(threshold-1), threshold, sparse(threshold), bitmap)
		}
		for _, n := range []int{0, 1, threshold - 2, threshold - 1, threshold, threshold + 1,
			space / 8, space/4 - 1, space / 4, space/4 + 1, space/2 + 1, space} {
			if n < 0 {
				continue
			}
			if dense := denseDirectory(n, w); dense != (n >= threshold) || dense != (sparse(n) >= bitmap) {
				t.Errorf("W=%d, %d codes: dense = %v, but the sparse form takes %d bytes against the bitmap's %d (threshold %d)",
					w, n, dense, sparse(n), bitmap, threshold)
			}
		}
	}
}

// FuzzSlot reads a directory and a probe out of arbitrary bytes, builds
// it in both forms — the bitmap only up to W = 12, a 2 MB bitmap — and
// holds Slot and Slots to slices.BinarySearch, probes at and above 4^W
// included.
func FuzzSlot(f *testing.F) {
	f.Add([]byte{}, uint8(11), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(15), uint32(1<<30-1))
	f.Add(binary.LittleEndian.AppendUint32(make([]byte, 4*40), 255), uint8(4), uint32(255))
	f.Fuzz(func(t *testing.T, raw []byte, wb uint8, probe uint32) {
		w := 1 + int(wb)%seed.MaxW
		codes := make([]seed.Code, 0, len(raw)/4)
		for ; len(raw) >= 4; raw = raw[4:] {
			codes = append(codes, seed.Code(binary.LittleEndian.Uint32(raw)%uint32(seed.NumCodes(w))))
		}
		slices.Sort(codes)
		codes = slices.Compact(codes)
		for _, dense := range []bool{false, true} {
			if dense && w > 12 {
				continue
			}
			q := dirOf(codes, w, dense)
			checkLookup(t, q, w, codes, false)
			checkSlots(t, q, w, codes, seed.Code(probe), seed.Code(probe)%seed.Code(seed.NumCodes(w)))
		}
	})
}
