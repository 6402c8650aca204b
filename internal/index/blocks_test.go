package index

import (
	"slices"
	"testing"

	"repro/internal/bank"
	"repro/internal/seed"
)

// sameIndexT asserts two indexes are identical in every array and
// counter — the byte-identity invariant the block operations promise.
func sameIndexT(t *testing.T, want, got *Index) {
	t.Helper()
	samePartsT(t, want.Parts(), got.Parts())
}

// splitCuts exercises the boundary shapes that matter: no cut (one
// block), a cut after every sequence, uneven cuts, and cuts adjacent
// to empty/short sequences.
func splitCuts(numSeqs int) map[string][]int {
	cuts := map[string][]int{
		"single":  nil,
		"mid":     {numSeqs / 2},
		"uneven":  {1, numSeqs - 1},
		"hostile": {-3, 0, numSeqs, numSeqs + 7, numSeqs / 2, numSeqs / 2},
	}
	all := make([]int, 0, numSeqs)
	for i := 1; i < numSeqs; i++ {
		all = append(all, i)
	}
	cuts["every"] = all
	return cuts
}

func TestSplitAndFromBlocksRoundTrip(t *testing.T) {
	b := bank.New("blocks", extendRecs(6000))
	for name, opts := range extendVariants() {
		t.Run(name, func(t *testing.T) {
			ix := Build(b, opts)
			for cutName, cuts := range splitCuts(b.NumSeqs()) {
				blocks := SplitBlocks(ix, cuts)
				got, err := FromBlocks(b, opts, blocks)
				if err != nil {
					t.Fatalf("%s: FromBlocks: %v", cutName, err)
				}
				sameIndexT(t, ix, got)
			}
		})
	}
}

// TestBuildBlockMatchesSplit is the append-path invariant: building a
// block over a sequence range in isolation yields exactly the block a
// whole-bank build splits out — so an appended suffix block plus the
// stored prefix blocks reassemble to the cold-build index.
func TestBuildBlockMatchesSplit(t *testing.T) {
	b := bank.New("blocks", extendRecs(4000))
	for name, opts := range extendVariants() {
		t.Run(name, func(t *testing.T) {
			ix := Build(b, opts)
			cut := b.NumSeqs() - 2
			blocks := SplitBlocks(ix, []int{cut})
			built, err := BuildBlock(b, opts, cut, b.NumSeqs())
			if err != nil {
				t.Fatal(err)
			}
			want := blocks[1]
			if want.SeqLo != built.SeqLo || want.SeqHi != built.SeqHi ||
				want.DataLo != built.DataLo || want.DataHi != built.DataHi ||
				want.MaskedOut != built.MaskedOut || want.SampledOut != built.SampledOut {
				t.Fatalf("block envelope differs: split %+v, built %+v",
					[]int{want.SeqLo, want.SeqHi, want.DataLo, want.DataHi, want.MaskedOut, want.SampledOut},
					[]int{built.SeqLo, built.SeqHi, built.DataLo, built.DataHi, built.MaskedOut, built.SampledOut})
			}
			if len(want.Codes) != len(built.Codes) {
				t.Fatalf("split block has %d codes, built block %d", len(want.Codes), len(built.Codes))
			}
			for i := range want.Codes {
				if want.Codes[i] != built.Codes[i] || want.Counts[i] != built.Counts[i] {
					t.Fatalf("code entry %d differs: split (%d,%d), built (%d,%d)",
						i, want.Codes[i], want.Counts[i], built.Codes[i], built.Counts[i])
				}
			}
			if !slices.Equal(want.Pos, built.Pos) {
				t.Fatal("occurrences differ")
			}
		})
	}
}

// TestAppendViaBlocksMatchesBuild is the end-to-end append story at the
// index layer, for every option shape and every split point: take the
// old bank's index as stored blocks, build one block over the appended
// suffix, reassemble — identical to a cold build of the grown bank.
func TestAppendViaBlocksMatchesBuild(t *testing.T) {
	recs := extendRecs(5000)
	grown := bank.New("grow", recs)
	for name, opts := range extendVariants() {
		t.Run(name, func(t *testing.T) {
			want := Build(grown, opts)
			for k := 1; k < len(recs); k++ {
				old := bank.New("grow", recs[:k])
				if grown.PrefixLen(k) != len(old.Data) {
					t.Fatalf("PrefixLen(%d)=%d, want %d", k, grown.PrefixLen(k), len(old.Data))
				}
				// Stored blocks are valid verbatim for the grown bank:
				// coordinates are append-stable.
				oldBlocks := SplitBlocks(Build(old, opts), []int{1})
				suffix, err := BuildBlock(grown, opts, k, grown.NumSeqs())
				if err != nil {
					t.Fatalf("split %d: %v", k, err)
				}
				got, err := FromBlocks(grown, opts, append(oldBlocks, suffix))
				if err != nil {
					t.Fatalf("split %d: %v", k, err)
				}
				sameIndexT(t, want, got)
				if got.Bank != grown || got.W != want.W {
					t.Fatalf("split %d: appended index not bound to the grown bank", k)
				}
			}
		})
	}
}

func TestFromBlocksRejectsHostileBlocks(t *testing.T) {
	b := bank.New("hostile", extendRecs(3000))
	opts := Options{W: 8}
	ix := Build(b, opts)
	fresh := func() []BlockParts { return SplitBlocks(ix, []int{2}) }
	// Block 0 holds r0 and r1 (40 A's, then "NN"); block 1 ends with the
	// bank. The poly-A code's slot has many occurrences.
	_, r0End := b.SeqBounds(0)
	r1Lo, _ := b.SeqBounds(1)
	polyA := func(bl []BlockParts) []int32 {
		if bl[0].Codes[0] != 0 || bl[0].Counts[0] < 2 {
			t.Fatal("test bank lost its poly-A run")
		}
		return bl[0].Pos[:bl[0].Counts[0]]
	}

	cases := map[string]func([]BlockParts) []BlockParts{
		"empty":       func(bl []BlockParts) []BlockParts { return nil },
		"gap":         func(bl []BlockParts) []BlockParts { return bl[1:] },
		"truncated":   func(bl []BlockParts) []BlockParts { return bl[:1] },
		"overlap":     func(bl []BlockParts) []BlockParts { bl[1].SeqLo = 1; return bl },
		"badDataLo":   func(bl []BlockParts) []BlockParts { bl[1].DataLo++; return bl },
		"badCount":    func(bl []BlockParts) []BlockParts { bl[0].Counts[0]++; return bl },
		"zeroCount":   func(bl []BlockParts) []BlockParts { bl[0].Counts[0] = 0; return bl },
		"unsorted":    func(bl []BlockParts) []BlockParts { bl[0].Codes[0] = bl[0].Codes[1] + 1; return bl },
		"dupCode":     func(bl []BlockParts) []BlockParts { bl[0].Codes[1] = bl[0].Codes[0]; return bl },
		"codeSpace":   func(bl []BlockParts) []BlockParts { bl[0].Codes[0] = seed.Code(seed.NumCodes(opts.W)); return bl },
		"posEscape":   func(bl []BlockParts) []BlockParts { bl[0].Pos[0] = int32(bl[0].DataHi); return bl },
		"wrongSeqHi":  func(bl []BlockParts) []BlockParts { bl[1].SeqHi--; bl[1].DataHi = b.PrefixLen(bl[1].SeqHi); return bl },
		"doubleCover": func(bl []BlockParts) []BlockParts { return append(bl, bl[1]) },

		// Positions that are not seed windows of their slot's code — what
		// an engine would extend from. All but posZero lie inside their
		// block's Data range.
		"posZero": func(bl []BlockParts) []BlockParts { bl[0].Pos[0] = 0; return bl },
		"posPastLastWindow": func(bl []BlockParts) []BlockParts {
			last := bl[1].Pos
			last[len(last)-1] = int32(len(b.Data) - opts.W)
			return bl
		},
		"posStraddlesSentinel": func(bl []BlockParts) []BlockParts { bl[0].Pos[0] = r0End - 3; return bl },
		"posHoldsInvalidBase":  func(bl []BlockParts) []BlockParts { polyA(bl)[0] = r1Lo + 36; return bl },
		"posOfAnotherCode":     func(bl []BlockParts) []BlockParts { bl[0].Pos[0] = bl[0].Pos[bl[0].Counts[0]]; return bl },
		"posDescending": func(bl []BlockParts) []BlockParts {
			occ := polyA(bl)
			occ[0], occ[1] = occ[1], occ[0]
			return bl
		},
		"posRepeated": func(bl []BlockParts) []BlockParts { occ := polyA(bl); occ[1] = occ[0]; return bl },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := FromBlocks(b, opts, mutate(fresh())); err == nil {
				t.Fatal("hostile blocks accepted")
			}
		})
	}
}
