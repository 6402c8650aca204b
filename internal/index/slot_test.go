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

// dirOf is an index that is only a directory: codes (ascending, below
// 4^w) and, whatever their number, the lookup structure of the form
// asked for — the presence bitmap and rank when dense, else Top — which
// is all Slot reads.
func dirOf(codes []seed.Code, w int, dense bool) *Index {
	ix := &Index{W: w, Codes: codes}
	if dense {
		ix.Bits, ix.Rank = presenceBitmap(codes, w)
	} else {
		ix.Top, ix.topShift = topDirectory(codes, w)
	}
	return ix
}

// checkLookup states what the lookup structure of ix is: the form the
// directory's size calls for (denseDirectory) when wantForm is true,
// and then the structure checkBitmap or checkTop describes.
func checkLookup(t testing.TB, ix *Index, wantForm bool) {
	t.Helper()
	if wantForm && ix.Dense() != denseDirectory(len(ix.Codes), ix.W) {
		t.Fatalf("W=%d, %d codes: Dense() = %v, the threshold says %v", ix.W, len(ix.Codes), ix.Dense(), !ix.Dense())
	}
	if ix.Dense() {
		if ix.Top != nil {
			t.Fatalf("W=%d, %d codes: a dense index carries Top (%d entries)", ix.W, len(ix.Codes), len(ix.Top))
		}
		checkBitmap(t, ix)
	} else {
		if ix.Bits != nil || ix.Rank != nil {
			t.Fatalf("W=%d, %d codes: a sparse index carries a bitmap", ix.W, len(ix.Codes))
		}
		checkTop(t, ix)
	}
}

// checkBitmap states what Bits and Rank are: one bit per code of
// [0, 4^W), set exactly for the listed codes, and one Rank entry per
// eight words counting the codes below its line.
func checkBitmap(t testing.TB, ix *Index) {
	t.Helper()
	space := seed.NumCodes(ix.W)
	if want := (space + 63) / 64; len(ix.Bits) != want || len(ix.Rank) != (want+lineWords-1)/lineWords {
		t.Fatalf("W=%d: %d bitmap words and %d rank entries, want %d and %d",
			ix.W, len(ix.Bits), len(ix.Rank), want, (want+lineWords-1)/lineWords)
	}
	k := 0
	for w, x := range ix.Bits {
		if w%lineWords == 0 && int(ix.Rank[w/lineWords]) != k {
			t.Fatalf("W=%d: Rank[%d] = %d, %d codes lie below its line", ix.W, w/lineWords, ix.Rank[w/lineWords], k)
		}
		for ; x != 0; x &= x - 1 {
			c := seed.Code(64*w + bits.TrailingZeros64(x))
			if k >= len(ix.Codes) || ix.Codes[k] != c {
				t.Fatalf("W=%d: bit %d is set, the directory's slot %d is not that code", ix.W, c, k)
			}
			k++
		}
	}
	if k != len(ix.Codes) {
		t.Fatalf("W=%d: %d bits set for %d codes", ix.W, k, len(ix.Codes))
	}
}

// checkSlots holds ix.Slot, and ix.Slots a batch at a time, to
// slices.BinarySearch on the probes that can tell them apart: every
// listed code and its two neighbours, both ends of the code space, the
// first codes outside it, and whatever extra is given — on a dense
// index and a sparse one alike.
func checkSlots(t testing.TB, ix *Index, extra ...seed.Code) {
	t.Helper()
	space := seed.Code(seed.NumCodes(ix.W))
	probes := append([]seed.Code{0, space - 1, space, space + 1, 1<<32 - 1}, extra...)
	for _, c := range ix.Codes {
		probes = append(probes, c-1, c, c+1)
	}
	for batch := range slices.Chunk(probes, SlotBatch) {
		var slots [SlotBatch]int32
		ix.Slots(batch, slots[:len(batch)])
		for i, c := range batch {
			wantSlot, wantFound := slices.BinarySearch(ix.Codes, c)
			if slot, found := ix.Slot(c); slot != wantSlot || found != wantFound {
				t.Fatalf("W=%d, %d codes: Slot(%d) = %d, %v; BinarySearch says %d, %v",
					ix.W, len(ix.Codes), c, slot, found, wantSlot, wantFound)
			}
			if !wantFound {
				wantSlot = -1
			}
			if int(slots[i]) != wantSlot {
				t.Fatalf("W=%d, %d codes: Slots resolves %d (entry %d of %d) to %d, want %d",
					ix.W, len(ix.Codes), c, i, len(batch), slots[i], wantSlot)
			}
		}
	}
}

// checkTop states what Top is: 2^k+1 non-decreasing entries from 0 to
// len(Codes), bucket h holding exactly the codes whose top bits are h,
// and no more than an eighth of the directory in size.
func checkTop(t testing.TB, ix *Index) {
	t.Helper()
	n := len(ix.Top) - 1
	if n < 1 || n&(n-1) != 0 || ix.Top[0] != 0 || int(ix.Top[n]) != len(ix.Codes) {
		t.Fatalf("W=%d, %d codes: Top has %d entries from %d to %d", ix.W, len(ix.Codes), len(ix.Top), ix.Top[0], ix.Top[n])
	}
	if len(ix.Top) > len(ix.Codes)/8+2 {
		t.Errorf("W=%d: |Top| = %d for %d codes, want ≤ |Codes|/8 + 2", ix.W, len(ix.Top), len(ix.Codes))
	}
	for h := 0; h < n; h++ {
		if ix.Top[h] > ix.Top[h+1] {
			t.Fatalf("W=%d: Top decreases at %d", ix.W, h)
		}
		for _, c := range ix.Codes[ix.Top[h]:ix.Top[h+1]] {
			if int(c>>ix.topShift) != h {
				t.Fatalf("W=%d: code %d in bucket %d, its top bits are %d", ix.W, c, h, c>>ix.topShift)
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
				ix := dirOf(codes, w, dense)
				checkLookup(t, ix, false)
				checkSlots(t, ix, extra...)
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
// exist — Build and FromBlocks (one block and several) —
// derives the same lookup structure, the one its directory's size calls
// for: the same bitmap and rank on a dense index, the same Top on a
// sparse one, on banks either side of the threshold. A real bank's
// directory then resolves like any other. At W = 15 only the sparse
// side is built: a dense W = 15 directory holds over 268 M codes.
func TestConstructorsDeriveTheSameLookup(t *testing.T) {
	for _, tc := range []struct {
		w     int
		b     *bank.Bank
		dense bool
	}{
		{4, mkBank("ACGTACGTAC", "TTTTTTT", "ACGTA"), false},
		{4, benchBankSeqs(40, 450), true},
		{11, benchBankSeqs(40, 450), false},
		{11, benchBankSeqs(3000, 450), true},
		{15, benchBankSeqs(40, 450), false},
	} {
		opts := Options{W: tc.w}
		built := Build(tc.b, opts)
		if built.Dense() != tc.dense {
			t.Fatalf("W=%d, %d codes: Dense() = %v, the row is meant to be %v", tc.w, len(built.Codes), built.Dense(), tc.dense)
		}
		checkLookup(t, built, true)
		checkSlots(t, built)
		// MemoryBytes counts the lookup structure exactly. A dense index's
		// bitmap and rank are 4^W/8 + 4^W/128 bytes (whole lines from
		// W = 5 on), at most the rank's 4^W/128 more than the Top its
		// sparse form would carry.
		lookup := 4 * len(built.Top)
		if space := seed.NumCodes(tc.w); tc.dense {
			lookup = 8*len(built.Bits) + 4*len(built.Rank)
			top := 4 * (1<<topBits(len(built.Codes)) + 1)
			if tc.w >= 5 && (lookup != space/8+space/128 || lookup > top+space/128) {
				t.Errorf("W=%d: the bitmap and rank take %d bytes, want 4^W/8 + 4^W/128 = %d, at most Top's %d + 4^W/128",
					tc.w, lookup, space/8+space/128, top)
			}
		}
		if want := 4*(len(built.Pos)+len(built.Codes)+len(built.Offsets)) + lookup; built.MemoryBytes() != want {
			t.Errorf("W=%d: MemoryBytes = %d, want %d", tc.w, built.MemoryBytes(), want)
		}
		oneBlock, err := FromBlocks(tc.b, opts, []BlockParts{built.Block()})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := FromBlocks(tc.b, opts, tileBlocks(t, tc.b, opts, []int{1, 7, 23}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{oneBlock, tiled} {
			sameIndexT(t, built, ix)
		}
	}
}

// TestDenseThresholdIsTheMemoryCrossover: a directory is dense exactly
// when the Top its sparse form would carry takes at least the bitmap's
// bytes — checked either side of the threshold at every W from 3 on,
// where the bitmap is whole words.
func TestDenseThresholdIsTheMemoryCrossover(t *testing.T) {
	for w := 3; w <= seed.MaxW; w++ {
		space := seed.NumCodes(w)
		bitmap := 8 * ((space + 63) / 64)
		for _, n := range []int{0, 1, space/4 - 1, space / 4, space/4 + 1, space/4 + 2, space/2 + 1, space} {
			top := 4 << topBits(n) // Top's bytes, less its closing entry
			if dense := denseDirectory(n, w); dense != (top >= bitmap) {
				t.Errorf("W=%d, %d codes: dense = %v, but Top takes %d bytes against the bitmap's %d", w, n, dense, top, bitmap)
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
			ix := dirOf(codes, w, dense)
			checkLookup(t, ix, false)
			checkSlots(t, ix, seed.Code(probe), seed.Code(probe)%seed.Code(seed.NumCodes(w)))
		}
	})
}
