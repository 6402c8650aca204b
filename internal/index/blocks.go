// Block-structured index assembly for the .orix on-disk format.
//
// A block is a self-contained CSR slice of a bank's index over one
// contiguous sequence range [SeqLo, SeqHi): every indexed occurrence
// whose position falls in the corresponding Data range, in the same
// code-major, position-minor order the whole-bank index uses, plus a
// sparse per-code directory (Codes/Counts) instead of a dense 4^W+1
// Starts array. Because bank coordinates are append-stable and no seed
// window straddles a sequence boundary (the sentinel byte makes such a
// window invalid), a block's content depends only on its own Data range
// — which is what makes the three block operations exact:
//
//   - SplitBlocks cuts a built index into blocks at sequence
//     boundaries without rescanning the bank;
//   - BuildBlock builds one block by scanning only its own Data range
//     (the O(suffix) append path);
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
	// Pos and the sidecars hold the occurrences in CSR order, in
	// absolute bank coordinates (append-stable, so a stored block stays
	// valid verbatim when the bank grows).
	Pos, OccSeq, OccLo, OccHi []int32
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
//     no stored position, sequence index, or bound shifts, and no seed
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
	bp := BlockParts{SeqLo: seqLo, SeqHi: seqHi, DataLo: dataLo, DataHi: dataHi}

	data := b.Data
	w := opts.W
	w32 := int32(w)
	step := int32(opts.SampleStep)
	phase := int32(opts.SamplePhase)
	base := int32(dataLo)
	var maskPfx []int32 // range-local coordinates
	if opts.Dust != nil {
		maskPfx = opts.Dust.MaskPrefix(data[dataLo:dataHi])
	}
	hint := (dataHi - dataLo + int(step) - 1) / int(step)
	// One packed code<<32|pos word per accepted window; sorting yields
	// CSR order directly (code-major, position-minor).
	occBuf := make([]uint64, 0, hint)
	scanRange(data, w, dataLo, dataHi, func(pos int32, c seed.Code) {
		if step > 1 && pos%step != phase {
			bp.SampledOut++
			return
		}
		if maskPfx != nil && maskPfx[pos-base+w32] != maskPfx[pos-base] {
			bp.MaskedOut++
			return
		}
		occBuf = append(occBuf, uint64(c)<<32|uint64(pos))
	})
	slices.Sort(occBuf)

	n := len(occBuf)
	bp.Pos = make([]int32, n)
	bp.OccSeq = make([]int32, n)
	bp.OccLo = make([]int32, n)
	bp.OccHi = make([]int32, n)
	for i, v := range occBuf {
		pos := int32(v & (1<<31 - 1))
		bp.Pos[i] = pos
		s := b.SeqAt(pos)
		bp.OccSeq[i] = s
		bp.OccLo[i], bp.OccHi[i] = b.SeqBounds(int(s))
		c := seed.Code(v >> 32)
		if k := len(bp.Codes); k == 0 || bp.Codes[k-1] != c {
			bp.Codes = append(bp.Codes, c)
			bp.Counts = append(bp.Counts, 1)
		} else {
			bp.Counts[k-1]++
		}
	}
	return bp, nil
}

// countRejects re-counts the masked/sampled windows of one Data range —
// the per-block share of the whole-bank counters, needed when a built
// index is split (Build tracks only totals). Same predicate, same
// order, same locality argument as BuildBlock's scan, minus the
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
	for _, c := range ix.Codes {
		s, e := ix.Starts[c], ix.Starts[c+1]
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
			bk.OccSeq = append(bk.OccSeq, ix.OccSeq[s:j]...)
			bk.OccLo = append(bk.OccLo, ix.OccLo[s:j]...)
			bk.OccHi = append(bk.OccHi, ix.OccHi[s:j]...)
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
// consistent), the per-code runs are concatenated in block order —
// positions in block k all precede positions in block k+1, so the
// concatenation is CSR order with no sorting — and the assembled parts
// then pass the same full structural validation FromParts applies, so
// a hostile block fails closed.
func FromBlocks(b *bank.Bank, opts Options, blocks []BlockParts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromBlocks: invalid W=%d", opts.W)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("index: FromBlocks: no blocks")
	}
	n := seed.NumCodes(opts.W)
	total := 0
	masked, sampled := 0, 0
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
		if len(bp.OccSeq) != len(bp.Pos) || len(bp.OccLo) != len(bp.Pos) || len(bp.OccHi) != len(bp.Pos) {
			return nil, fmt.Errorf("index: FromBlocks: block %d sidecar lengths %d/%d/%d, want %d",
				i, len(bp.OccSeq), len(bp.OccLo), len(bp.OccHi), len(bp.Pos))
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
		for _, p := range bp.Pos {
			if p < lo || p >= hi {
				return nil, fmt.Errorf("index: FromBlocks: block %d position %d outside its Data range [%d,%d)", i, p, lo, hi)
			}
		}
		total += len(bp.Pos)
		masked += bp.MaskedOut
		sampled += bp.SampledOut
		wantSeq = bp.SeqHi
	}
	if wantSeq != b.NumSeqs() {
		return nil, fmt.Errorf("index: FromBlocks: blocks cover %d sequences, bank has %d", wantSeq, b.NumSeqs())
	}

	ix := &Index{
		Bank:       b,
		W:          opts.W,
		Starts:     make([]int32, n+1),
		Pos:        make([]int32, total),
		OccSeq:     make([]int32, total),
		OccLo:      make([]int32, total),
		OccHi:      make([]int32, total),
		Indexed:    total,
		MaskedOut:  masked,
		SampledOut: sampled,
		opts:       opts,
	}
	// Counting-sort assembly, the serial Build trick: accumulate per-code
	// counts into Starts[c+1], prefix-sum them into per-code cursors
	// (recording the occupied-code directory for free), then copy each
	// block's runs to its codes' cursors. Blocks arrive in ascending
	// Data order, so each code's concatenated run stays position-sorted.
	st := ix.Starts
	for i := range blocks {
		for j, c := range blocks[i].Codes {
			st[c+1] += blocks[i].Counts[j]
		}
	}
	var running int32
	for c := 0; c < n; c++ {
		if k := st[c+1]; k != 0 {
			st[c+1] = running
			running += k
			ix.Codes = append(ix.Codes, seed.Code(c))
		} else {
			st[c+1] = running
		}
	}
	for i := range blocks {
		bp := &blocks[i]
		var off int32
		for j, c := range bp.Codes {
			cnt := bp.Counts[j]
			dst := st[c+1]
			copy(ix.Pos[dst:], bp.Pos[off:off+cnt])
			copy(ix.OccSeq[dst:], bp.OccSeq[off:off+cnt])
			copy(ix.OccLo[dst:], bp.OccLo[off:off+cnt])
			copy(ix.OccHi[dst:], bp.OccHi[off:off+cnt])
			st[c+1] = dst + cnt
			off += cnt
		}
	}
	// After the scatter, Starts[c+1] sits on the inclusive end of group
	// c — the final CSR prefix-sum array.
	if err := checkParts(b, opts, ix.Parts()); err != nil {
		return nil, fmt.Errorf("index: FromBlocks: assembled parts invalid: %w", err)
	}
	return ix, nil
}
