package index

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/seed"
)

// dirOf is an index that is only a directory: codes (ascending, below
// 4^w) and the Top derived from them, which is all Slot reads.
func dirOf(codes []seed.Code, w int) *Index {
	ix := &Index{W: w, Codes: codes}
	ix.Top, ix.topShift = topDirectory(codes, w)
	return ix
}

// checkSlots holds ix.Slot, and ix.Slots a batch at a time, to
// slices.BinarySearch on the probes that can tell them apart: every
// listed code and its two neighbours, both ends of the code space, the
// first codes outside it, and whatever extra is given.
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

// TestSlotMatchesBinarySearch: the point lookup through Top agrees with
// a binary search of the whole directory, slot and found, on every shape
// of directory the bucket arithmetic could get wrong.
func TestSlotMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, w := range []int{4, 11, 15} {
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
		} {
			name, codes := tc.name, tc.codes
			if !slices.IsSorted(codes) {
				t.Fatalf("W=%d %s: test directory not ascending", w, name)
			}
			ix := dirOf(codes, w)
			checkTop(t, ix)
			extra := make([]seed.Code, 64)
			for i := range extra {
				extra[i] = seed.Code(rng.Intn(space))
			}
			checkSlots(t, ix, extra...)
		}
	}
}

// TestBuiltIndexesCarryTop: every way an index comes to exist derives
// the same Top — Build, FromParts and FromBlocks (one block and several)
// — and a real bank's directory resolves like any other.
func TestBuiltIndexesCarryTop(t *testing.T) {
	b := benchBankSeqs(40, 450)
	for _, w := range []int{4, 11, 15} {
		opts := Options{W: w}
		built := Build(b, opts)
		checkTop(t, built)
		checkSlots(t, built)
		fromParts, err := FromParts(b, opts, built.Parts())
		if err != nil {
			t.Fatal(err)
		}
		oneBlock, err := FromBlocks(b, opts, []BlockParts{built.Block()})
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := FromBlocks(b, opts, tileBlocks(t, b, opts, []int{7, 23}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*Index{fromParts, oneBlock, tiled} {
			sameIndexT(t, built, ix)
		}
	}
}

// FuzzSlot reads a directory and a probe out of arbitrary bytes and
// holds Slot to slices.BinarySearch.
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
		ix := dirOf(slices.Compact(codes), w)
		checkTop(t, ix)
		checkSlots(t, ix, seed.Code(probe))
	})
}
