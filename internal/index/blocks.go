// Block-structured index assembly for the .orix on-disk format.
//
// A block is a self-contained CSR slice of a bank's index over one
// contiguous sequence range [SeqLo, SeqHi): every indexed occurrence
// whose position falls in the corresponding Data range, in the same
// code-major, position-minor order the whole-bank index uses, under the
// same sorted code directory with per-code Counts where the index keeps
// Offsets. Because bank coordinates are append-stable and no seed
// window straddles a sequence boundary (the sentinel byte makes such a
// window invalid), a block's content depends only on its own Data range
// — which is what makes the three block operations exact:
//
//   - SplitBlocks cuts a built index into blocks at sequence
//     boundaries without rescanning the bank;
//   - BuildBlock runs the build routine over only the block's own Data
//     range (the O(suffix) append path) — Build is the same routine
//     over the whole array;
//   - FromBlocks reassembles the whole-bank index from a tiling of
//     blocks, byte-identical to Build.
//
// The invariant tying them together, tested in blocks_test.go: for any
// boundary choice, FromBlocks(SplitBlocks(Build(b))) == Build(b), and
// SplitBlocks' last block == BuildBlock over the same range.
package index

import (
	"fmt"
	"slices"

	"repro/internal/bank"
	"repro/internal/seed"
)

// BlockParts is the serialized form of one index block — exactly what
// one .orix block section holds. Occurrences are in CSR order:
// grouped by seed code (ascending, listed in Codes), position-sorted
// inside each group, with Counts[i] occurrences of Codes[i].
type BlockParts struct {
	// SeqLo, SeqHi bound the sequence range [SeqLo, SeqHi).
	SeqLo, SeqHi int
	// DataLo, DataHi bound the bank Data range the sequences span:
	// DataLo = bank.PrefixLen(SeqLo), DataHi = bank.PrefixLen(SeqHi).
	DataLo, DataHi int
	// Codes lists the distinct seed codes present, ascending; Counts is
	// parallel (occurrences per code, all > 0).
	Codes  []seed.Code
	Counts []int32
	// Pos holds the occurrences in CSR order, in absolute bank
	// coordinates (append-stable, so a stored block stays valid verbatim
	// when the bank grows).
	Pos []int32
	// MaskedOut and SampledOut count the windows of this Data range
	// rejected by dust and sampling — per-block shares of the whole-bank
	// counters (they sum exactly, since no window straddles a cut).
	MaskedOut, SampledOut int
}

// Indexed returns the number of occurrences in the block.
func (bp *BlockParts) Indexed() int { return len(bp.Pos) }

// checkCut validates that [seqLo, seqHi) is a non-empty, in-range
// sequence interval of b and returns its Data bounds.
func checkCut(b *bank.Bank, seqLo, seqHi int) (dataLo, dataHi int, err error) {
	if seqLo < 0 || seqHi <= seqLo || seqHi > b.NumSeqs() {
		return 0, 0, fmt.Errorf("index: invalid sequence range [%d,%d) of %d", seqLo, seqHi, b.NumSeqs())
	}
	return b.PrefixLen(seqLo), b.PrefixLen(seqHi), nil
}

// BuildBlock builds the index block for sequences [seqLo, seqHi) of b
// by scanning only their Data range — the incremental unit of the
// append path: appending sequences to a stored bank costs one
// BuildBlock over the suffix, never a rescan of the prefix. The result
// is identical to the corresponding block of SplitBlocks(Build(b)),
// and stays valid verbatim when the bank later grows, because
// everything it depends on is append-stable (DESIGN.md §7):
//
//   - Coordinates: appended sequences land after the final sentinel, so
//     no stored position shifts, and no seed
//     window straddles the boundary (a window containing the sentinel
//     is invalid by construction).
//   - Sampling: SampleStep/SamplePhase select absolute Data residues,
//     which do not move.
//   - Dust masking: the masker splits runs at invalid bytes (sentinels
//     included), so masking the range in isolation agrees with a
//     whole-bank pass.
func BuildBlock(b *bank.Bank, opts Options, seqLo, seqHi int) (BlockParts, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return BlockParts{}, fmt.Errorf("index: BuildBlock: invalid W=%d", opts.W)
	}
	dataLo, dataHi, err := checkCut(b, seqLo, seqHi)
	if err != nil {
		return BlockParts{}, fmt.Errorf("index: BuildBlock: %w", err)
	}
	p := buildRange(b, opts, dataLo, dataHi)
	// Counts overwrite the offsets they are the differences of.
	counts := p.Offsets[:len(p.Codes)]
	for i := range counts {
		counts[i] = p.Offsets[i+1] - p.Offsets[i]
	}
	return BlockParts{
		SeqLo: seqLo, SeqHi: seqHi, DataLo: dataLo, DataHi: dataHi,
		Codes: p.Codes, Counts: counts, Pos: p.Pos,
		MaskedOut: p.MaskedOut, SampledOut: p.SampledOut,
	}, nil
}

// countRejects re-counts the masked/sampled windows of one Data range —
// the per-block share of the whole-bank counters, needed when a built
// index is split (Build tracks only totals). Same predicate, same
// order, same locality argument as the build's scan, minus the
// occurrence buffering.
func countRejects(b *bank.Bank, opts Options, dataLo, dataHi int) (masked, sampled int) {
	opts = opts.normalized()
	w := opts.W
	w32 := int32(w)
	step := int32(opts.SampleStep)
	phase := int32(opts.SamplePhase)
	base := int32(dataLo)
	var maskPfx []int32
	if opts.Dust != nil {
		maskPfx = opts.Dust.MaskPrefix(b.Data[dataLo:dataHi])
	}
	scanRange(b.Data, w, dataLo, dataHi, func(pos int32, c seed.Code) {
		if step > 1 && pos%step != phase {
			sampled++
			return
		}
		if maskPfx != nil && maskPfx[pos-base+w32] != maskPfx[pos-base] {
			masked++
		}
	})
	return masked, sampled
}

// SplitBlocks cuts a built index into blocks at the given ascending
// sequence boundaries (cut after every bounds[i] sequences; implicit
// cuts at 0 and NumSeqs close the tiling, and out-of-range or
// duplicate boundaries are ignored). The occurrence arrays are sliced
// and regrouped in O(Indexed); with more than one block the per-block
// dust/sampling counters cost one extra count-only scan of the bank
// (Build tracks only totals). Splitting never changes content:
// FromBlocks over the result rebuilds ix exactly.
func SplitBlocks(ix *Index, bounds []int) []BlockParts {
	b := ix.Bank
	numSeqs := b.NumSeqs()
	cuts := []int{0}
	for _, c := range slices.Sorted(slices.Values(bounds)) {
		if c > cuts[len(cuts)-1] && c < numSeqs {
			cuts = append(cuts, c)
		}
	}
	cuts = append(cuts, numSeqs)
	nb := len(cuts) - 1
	blocks := make([]BlockParts, nb)
	dataEnds := make([]int32, nb)
	for k := 0; k < nb; k++ {
		blocks[k].SeqLo, blocks[k].SeqHi = cuts[k], cuts[k+1]
		blocks[k].DataLo = b.PrefixLen(cuts[k])
		blocks[k].DataHi = b.PrefixLen(cuts[k+1])
		dataEnds[k] = int32(blocks[k].DataHi)
		if nb == 1 {
			blocks[k].MaskedOut = ix.MaskedOut
			blocks[k].SampledOut = ix.SampledOut
		} else {
			blocks[k].MaskedOut, blocks[k].SampledOut =
				countRejects(b, ix.opts, blocks[k].DataLo, blocks[k].DataHi)
		}
	}

	// One pass over the occupied codes: each code's run is ascending in
	// position, so it partitions into per-block segments by a forward
	// walk against the block Data boundaries.
	for i, c := range ix.Codes {
		s, e := ix.Offsets[i], ix.Offsets[i+1]
		k := 0
		for s < e {
			for ix.Pos[s] >= dataEnds[k] {
				k++
			}
			// The segment of this code's run inside block k.
			j := s
			for j < e && ix.Pos[j] < dataEnds[k] {
				j++
			}
			bk := &blocks[k]
			bk.Codes = append(bk.Codes, c)
			bk.Counts = append(bk.Counts, int32(j-s))
			bk.Pos = append(bk.Pos, ix.Pos[s:j]...)
			s = j
		}
	}
	return blocks
}

// FromBlocks reassembles the whole-bank index from blocks tiling
// [0, b.NumSeqs()), as if Build(b, opts) had produced it. The blocks
// are untrusted (they come from disk files): the tiling is checked
// (contiguous sequence ranges, Data bounds matching the bank's real
// prefix boundaries, every position inside its block's range, counts
// consistent), the blocks' sorted directories are merged and each
// code's runs concatenated in block order — positions in block k all
// precede positions in block k+1, so the concatenation is CSR order —
// and the assembled parts then pass the same validation FromParts
// applies (every position a real seed window of its slot's code), so a
// hostile block fails closed. A
// single block already is the index: its arrays (which may alias an
// mmap'd file) are adopted, not copied, and only Offsets is computed.
func FromBlocks(b *bank.Bank, opts Options, blocks []BlockParts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromBlocks: invalid W=%d", opts.W)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("index: FromBlocks: no blocks")
	}
	n := seed.NumCodes(opts.W)
	var p Parts
	wantSeq := 0
	for i := range blocks {
		bp := &blocks[i]
		if bp.SeqLo != wantSeq {
			return nil, fmt.Errorf("index: FromBlocks: block %d covers sequences [%d,%d), expected to start at %d",
				i, bp.SeqLo, bp.SeqHi, wantSeq)
		}
		if bp.SeqHi <= bp.SeqLo || bp.SeqHi > b.NumSeqs() {
			return nil, fmt.Errorf("index: FromBlocks: block %d has invalid sequence range [%d,%d) of %d",
				i, bp.SeqLo, bp.SeqHi, b.NumSeqs())
		}
		if bp.DataLo != b.PrefixLen(bp.SeqLo) || bp.DataHi != b.PrefixLen(bp.SeqHi) {
			return nil, fmt.Errorf("index: FromBlocks: block %d records Data range [%d,%d), bank's sequences [%d,%d) span [%d,%d)",
				i, bp.DataLo, bp.DataHi, bp.SeqLo, bp.SeqHi, b.PrefixLen(bp.SeqLo), b.PrefixLen(bp.SeqHi))
		}
		if len(bp.Codes) != len(bp.Counts) {
			return nil, fmt.Errorf("index: FromBlocks: block %d has %d codes but %d counts",
				i, len(bp.Codes), len(bp.Counts))
		}
		var sum int
		for j, c := range bp.Codes {
			if int(c) < 0 || int(c) >= n {
				return nil, fmt.Errorf("index: FromBlocks: block %d code %d outside the 4^%d code space", i, c, opts.W)
			}
			if j > 0 && bp.Codes[j-1] >= c {
				return nil, fmt.Errorf("index: FromBlocks: block %d codes not strictly ascending at entry %d", i, j)
			}
			if bp.Counts[j] < 1 {
				return nil, fmt.Errorf("index: FromBlocks: block %d count %d for code %d", i, bp.Counts[j], c)
			}
			sum += int(bp.Counts[j])
		}
		if sum != len(bp.Pos) {
			return nil, fmt.Errorf("index: FromBlocks: block %d counts sum to %d for %d positions", i, sum, len(bp.Pos))
		}
		lo, hi := int32(bp.DataLo), int32(bp.DataHi)
		for _, pos := range bp.Pos {
			if pos < lo || pos >= hi {
				return nil, fmt.Errorf("index: FromBlocks: block %d position %d outside its Data range [%d,%d)", i, pos, lo, hi)
			}
		}
		p.Indexed += len(bp.Pos)
		p.MaskedOut += bp.MaskedOut
		p.SampledOut += bp.SampledOut
		wantSeq = bp.SeqHi
	}
	if wantSeq != b.NumSeqs() {
		return nil, fmt.Errorf("index: FromBlocks: blocks cover %d sequences, bank has %d", wantSeq, b.NumSeqs())
	}

	if len(blocks) == 1 {
		bp := &blocks[0]
		p.Codes, p.Pos = bp.Codes, bp.Pos
		p.Offsets = make([]int32, 1, len(bp.Codes)+1)
		for _, k := range bp.Counts {
			p.Offsets = append(p.Offsets, p.Offsets[len(p.Offsets)-1]+k)
		}
	} else {
		mergeBlocks(&p, blocks, opts.W)
	}
	if err := checkParts(b, opts, p); err != nil {
		return nil, fmt.Errorf("index: FromBlocks: assembled parts invalid: %w", err)
	}
	return assemble(b, opts, p), nil
}

// mergeBlocks fills p's arrays (p.Indexed is already the total) from
// validated blocks in ascending Data order. The build's own sort does
// the k-way directory merge: one code<<32|block word per directory
// entry, stably sorted by code, lists every code's blocks in block
// order, and because each block's directory ascends, a block's entries
// come up in its own order — so a per-block cursor finds each run.
func mergeBlocks(p *Parts, blocks []BlockParts, w int) {
	entries := 0
	for i := range blocks {
		entries += len(blocks[i].Codes)
	}
	words := make([]uint64, 0, entries)
	for i := range blocks {
		for _, c := range blocks[i].Codes {
			words = append(words, uint64(c)<<32|uint64(i))
		}
	}
	words = sortByCode(words, make([]uint64, entries), w)
	distinct := 0
	for i, v := range words {
		if i == 0 || v>>32 != words[i-1]>>32 {
			distinct++
		}
	}
	p.Codes = make([]seed.Code, 0, distinct)
	p.Offsets = make([]int32, 0, distinct+1)

	p.Pos = make([]int32, p.Indexed)
	type cursor struct{ entry, occ int32 }
	cur := make([]cursor, len(blocks))
	var dst int32
	for i, v := range words {
		if i == 0 || v>>32 != words[i-1]>>32 {
			p.Codes = append(p.Codes, seed.Code(v>>32))
			p.Offsets = append(p.Offsets, dst)
		}
		bp, c := &blocks[uint32(v)], &cur[uint32(v)]
		end := c.occ + bp.Counts[c.entry]
		copy(p.Pos[dst:], bp.Pos[c.occ:end])
		dst += end - c.occ
		c.entry, c.occ = c.entry+1, end
	}
	p.Offsets = append(p.Offsets, dst)
}
