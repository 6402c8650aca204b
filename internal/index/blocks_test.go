package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/seed"
)

// sameIndexT asserts two indexes are identical in every array and
// counter — the byte-identity invariant the block operations promise —
// and in the Top derived from them.
func sameIndexT(t *testing.T, want, got *Index) {
	t.Helper()
	samePartsT(t, want.Parts(), got.Parts())
	if !slices.Equal(want.Top, got.Top) || want.topShift != got.topShift {
		t.Errorf("Top differs: want %d entries at shift %d, got %d at %d",
			len(want.Top), want.topShift, len(got.Top), got.topShift)
	}
}

// tileBlocks tiles b into blocks the way production makes every block
// but the first: one BuildBlock per sequence range, cut after every
// cuts[i] sequences (implicit cuts at 0 and NumSeqs close the tiling;
// out-of-range and duplicate cuts are ignored).
func tileBlocks(t testing.TB, b *bank.Bank, opts Options, cuts []int) []BlockParts {
	t.Helper()
	bounds := []int{0}
	for _, c := range slices.Sorted(slices.Values(cuts)) {
		if c > bounds[len(bounds)-1] && c < b.NumSeqs() {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, b.NumSeqs())
	blocks := make([]BlockParts, len(bounds)-1)
	for i := range blocks {
		bp, err := BuildBlock(b, opts, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatalf("BuildBlock [%d,%d): %v", bounds[i], bounds[i+1], err)
		}
		blocks[i] = bp
	}
	return blocks
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

// tilingRecs builds 260 records for the many-block merges: every record
// but the last three carries one motif (its codes are in every block's
// directory), every seventh a second one (codes shared by some blocks),
// and random bases besides (at W=11 nearly every such code belongs to
// one block). The last three records hold no seed window at all, so a
// block cut at tinyFrom has an empty directory.
const tinyFrom = 257

func tilingRecs() []*fasta.Record {
	rng := rand.New(rand.NewSource(2008))
	randBases := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	all, some := randBases(40), randBases(40)
	recs := make([]*fasta.Record, 0, 260)
	for i := 0; i < tinyFrom; i++ {
		seq := append(randBases(100+rng.Intn(300)), all...)
		if i%7 == 0 {
			seq = append(seq, some...)
		}
		if i%11 == 0 {
			seq = append(seq, 'N')
		}
		recs = append(recs, &fasta.Record{ID: fmt.Sprintf("t%d", i), Seq: append(seq, randBases(rng.Intn(60))...)})
	}
	return append(recs,
		&fasta.Record{ID: "tiny0", Seq: []byte("ACG")},
		&fasta.Record{ID: "tiny1", Seq: []byte{}},
		&fasta.Record{ID: "tiny2", Seq: []byte("NNNNNNNNNNNNNNNN")})
}

// TestSplitAndFromBlocksRoundTrip: FromBlocks over any BuildBlock tiling
// of a bank is Build of the bank, array for array — for every option
// shape and boundary shape on the edge-content bank, and for 1 to 200
// blocks at random cuts (codes shared by all, by some and by one block,
// an empty-directory block) under every worker count.
func TestSplitAndFromBlocksRoundTrip(t *testing.T) {
	b := bank.New("blocks", extendRecs(6000))
	for name, opts := range extendVariants() {
		t.Run(name, func(t *testing.T) {
			ix := Build(b, opts)
			for cutName, cuts := range splitCuts(b.NumSeqs()) {
				got, err := FromBlocks(b, opts, tileBlocks(t, b, opts, cuts))
				if err != nil {
					t.Fatalf("%s: FromBlocks: %v", cutName, err)
				}
				sameIndexT(t, ix, got)
			}
		})
	}

	tb := bank.New("tiling", tilingRecs())
	if len(tb.Data) < minParallelData {
		t.Fatalf("tiling bank has %d bytes, below the %d a sharded build needs", len(tb.Data), minParallelData)
	}
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 3, 17, 200} {
		for _, workers := range []int{1, 2, 7} {
			for _, opts := range []Options{{W: 11, Workers: workers}, {W: 8, Dust: dust.New(0, 0), SampleStep: 2, Workers: workers}} {
				t.Run(fmt.Sprintf("k=%d/workers=%d/W=%d", k, workers, opts.W), func(t *testing.T) {
					var cuts []int
					if k > 1 {
						cuts = append(rng.Perm(tinyFrom - 1)[:k-2], tinyFrom-1)
						for i := range cuts {
							cuts[i]++ // a cut after 1..tinyFrom sequences, tinyFrom always
						}
					}
					blocks := tileBlocks(t, tb, opts, cuts)
					if len(blocks) != k {
						t.Fatalf("tiled %d blocks, want %d", len(blocks), k)
					}
					if last := blocks[k-1]; k > 1 && len(last.Codes)+len(last.Pos) != 0 {
						t.Fatalf("the block of windowless records has %d codes", len(last.Codes))
					}
					got, err := FromBlocks(tb, opts, blocks)
					if err != nil {
						t.Fatal(err)
					}
					sameIndexT(t, Build(tb, opts), got)
				})
			}
		}
	}
}

// TestBuildBlockMatchesSplit is the append-path invariant: building a
// block over a sequence range in isolation yields exactly the slice of
// a whole-bank build that falls in the range — so an appended suffix
// block plus the stored prefix blocks reassemble to the cold-build
// index — and a built index presented as one block is the block built
// over the whole bank.
func TestBuildBlockMatchesSplit(t *testing.T) {
	b := bank.New("blocks", extendRecs(4000))
	sameBlock := func(t *testing.T, want, built BlockParts) {
		t.Helper()
		if want.SeqLo != built.SeqLo || want.SeqHi != built.SeqHi ||
			want.DataLo != built.DataLo || want.DataHi != built.DataHi {
			t.Fatalf("block envelope differs: want %+v, built %+v",
				[]int{want.SeqLo, want.SeqHi, want.DataLo, want.DataHi},
				[]int{built.SeqLo, built.SeqHi, built.DataLo, built.DataHi})
		}
		if !slices.Equal(want.Codes, built.Codes) || !slices.Equal(want.Counts, built.Counts) {
			t.Fatal("directories differ")
		}
		if !slices.Equal(want.Pos, built.Pos) {
			t.Fatal("occurrences differ")
		}
	}
	for name, opts := range extendVariants() {
		t.Run(name, func(t *testing.T) {
			ix := Build(b, opts)
			cut := b.NumSeqs() - 2
			head, err := BuildBlock(b, opts, 0, cut)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := BuildBlock(b, opts, cut, b.NumSeqs())
			if err != nil {
				t.Fatal(err)
			}
			// What Build holds inside each range, by brute force: every
			// code's occurrences filtered by position.
			for _, built := range []BlockParts{head, tail} {
				want := BlockParts{SeqLo: built.SeqLo, SeqHi: built.SeqHi,
					DataLo: b.PrefixLen(built.SeqLo), DataHi: b.PrefixLen(built.SeqHi)}
				for i, c := range ix.Codes {
					n := len(want.Pos)
					for _, pos := range ix.Pos[ix.Offsets[i]:ix.Offsets[i+1]] {
						if int(pos) >= want.DataLo && int(pos) < want.DataHi {
							want.Pos = append(want.Pos, pos)
						}
					}
					if len(want.Pos) > n {
						want.Codes = append(want.Codes, c)
						want.Counts = append(want.Counts, int32(len(want.Pos)-n))
					}
				}
				sameBlock(t, want, built)
			}
			if head.MaskedOut+tail.MaskedOut != ix.MaskedOut || head.SampledOut+tail.SampledOut != ix.SampledOut {
				t.Fatalf("reject counters do not sum: blocks %d+%d masked, %d+%d sampled; build %d, %d",
					head.MaskedOut, tail.MaskedOut, head.SampledOut, tail.SampledOut, ix.MaskedOut, ix.SampledOut)
			}

			whole, err := BuildBlock(b, opts, 0, b.NumSeqs())
			if err != nil {
				t.Fatal(err)
			}
			asBlock := ix.Block()
			sameBlock(t, whole, asBlock)
			if whole.MaskedOut != asBlock.MaskedOut || whole.SampledOut != asBlock.SampledOut {
				t.Fatal("reject counters of Index.Block differ from BuildBlock's")
			}
			if &asBlock.Pos[0] != &ix.Pos[0] || &asBlock.Codes[0] != &ix.Codes[0] {
				t.Fatal("Index.Block copied the index's arrays")
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
				// coordinates are append-stable. A fresh save is the old
				// index as one block; an earlier append leaves two.
				for _, oldBlocks := range [][]BlockParts{{Build(old, opts).Block()}, tileBlocks(t, old, opts, []int{1})} {
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
			}
		})
	}
}

func TestFromBlocksRejectsHostileBlocks(t *testing.T) {
	b := bank.New("hostile", extendRecs(3000))
	opts := Options{W: 8}
	fresh := func() []BlockParts { return tileBlocks(t, b, opts, []int{2}) }
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
