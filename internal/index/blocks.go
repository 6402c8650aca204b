// Block-structured index assembly for the .orix on-disk format.
//
// A block is a self-contained CSR slice of a bank's index over one
// contiguous sequence range [SeqLo, SeqHi): every indexed occurrence
// whose position falls in the corresponding Data range, in the same
// code-major, position-minor order the whole-bank index uses, under a
// sorted code directory of its own and block-local Offsets. Because bank
// coordinates are append-stable and no seed window straddles a sequence
// boundary (the sentinel byte makes such a window invalid), a block's
// content depends only on its own Data range — which is what makes the
// three block operations exact:
//
//   - Index.Blocks presents each part of an index as the block it
//     already is, sharing its arrays — a built index is one block over
//     the whole bank;
//   - BuildBlock runs the build routine over only the block's own Data
//     range (the O(suffix) append path) — Build is the same routine
//     over the whole array;
//   - FromBlocks takes a tiling of blocks as the index's parts, one a
//     block, each as it stands.
//
// The invariant tying them together, tested in blocks_test.go: for any
// tiling of b by BuildBlock, each part of FromBlocks(tiling) is its
// block, array for array; a code's occurrences concatenated over the
// parts are Build(b)'s; and Build(b).Blocks() is the one block
// BuildBlock makes over the whole bank.
package index

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/seed"
)

// BlockParts is one index block — what the build routine produces, what
// one .orix block holds, and what FromBlocks takes as one part of an
// Index.
// Occurrences are in CSR order: grouped by seed code (ascending, listed
// in Codes), position-sorted inside each group, the occurrences of
// Codes[i] being Pos[Offsets[i]:Offsets[i+1]]. The slices may alias
// read-only memory (an mmap'd file section): nothing in this package
// writes to them once built, per the immutability contract (index.go).
type BlockParts struct {
	// SeqLo, SeqHi bound the sequence range [SeqLo, SeqHi).
	SeqLo, SeqHi int
	// DataLo, DataHi bound the bank Data range the sequences span:
	// DataLo = bank.PrefixLen(SeqLo), DataHi = bank.PrefixLen(SeqHi).
	DataLo, DataHi int
	// Codes lists the distinct seed codes present, ascending.
	Codes []seed.Code
	// Offsets has len(Codes)+1 entries, strictly ascending from 0 to
	// len(Pos). They index this block's own Pos, so a stored block stays
	// valid verbatim when an append adds another block after it.
	Offsets []int32
	// Pos holds the occurrences in CSR order, in absolute bank
	// coordinates (append-stable, so a stored block stays valid verbatim
	// when the bank grows).
	Pos []int32
	// MaskedOut and SampledOut count the windows of this Data range
	// rejected by dust and sampling — per-block shares of the whole-bank
	// counters (they sum exactly, since no window straddles a cut).
	MaskedOut, SampledOut int
}

// BuildBlock builds the index block for sequences [seqLo, seqHi) of b
// by scanning only their Data range — the incremental unit of the
// append path: appending sequences to a stored bank costs one
// BuildBlock over the suffix, never a rescan of the prefix. A block
// holds its directory as a list: where the build emitted a dense
// bitmap, Codes is listed from it, as Blocks does for a save. The result
// holds exactly the occurrences Build(b) has inside the range, in the
// same order, and stays valid verbatim when the bank later grows,
// because everything it depends on is append-stable (DESIGN.md §7):
//
//   - Coordinates: appended sequences land after the final sentinel, so
//     no stored position shifts, and no seed
//     window straddles the boundary (a window containing the sentinel
//     is invalid by construction).
//   - Sampling: SampleStep selects absolute Data residues (multiples
//     of the step), which do not move.
//   - Dust masking: the filter splits runs at invalid bytes (sentinels
//     included), so masking the range in isolation agrees with a
//     whole-bank pass.
func BuildBlock(b *bank.Bank, opts Options, seqLo, seqHi int) (BlockParts, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return BlockParts{}, fmt.Errorf("index: BuildBlock: invalid W=%d", opts.W)
	}
	if seqLo < 0 || seqHi <= seqLo || seqHi > b.NumSeqs() {
		return BlockParts{}, fmt.Errorf("index: BuildBlock: invalid sequence range [%d,%d) of %d", seqLo, seqHi, b.NumSeqs())
	}
	dataLo, dataHi := b.PrefixLen(seqLo), b.PrefixLen(seqHi)
	p, bitmap := buildRange(b, opts, dataLo, dataHi)
	if bitmap != nil {
		p.Codes = listOf(bitmap, len(p.Offsets)-1)
	}
	p.SeqLo, p.SeqHi, p.DataLo, p.DataHi = seqLo, seqHi, dataLo, dataHi
	return p, nil
}

// Blocks returns each part of ix as the block it already is, in order
// — what a save writes: one block for a built index. Offsets and Pos
// are the parts' own arrays, and so is Codes on a sparse part, not
// copies (read-only); on a dense part Codes is regenerated (Directory)
// and lives only as long as the block.
func (ix *Index) Blocks() []BlockParts {
	blocks := make([]BlockParts, len(ix.parts))
	for i := range ix.parts {
		q := &ix.parts[i]
		blocks[i] = BlockParts{
			SeqLo: q.SeqLo, SeqHi: q.SeqHi, DataLo: q.DataLo, DataHi: q.DataHi,
			Codes: q.Directory(), Offsets: q.Offsets, Pos: q.Pos,
			MaskedOut: q.MaskedOut, SampledOut: q.SampledOut,
		}
	}
	return blocks
}

// FromBlocks assembles the index of b from blocks tiling
// [0, b.NumSeqs()), one part a block, in block order. The blocks are
// untrusted (they come from disk files). The tiling is checked —
// contiguous sequence ranges, Data bounds matching the bank's real
// prefix boundaries — and each block's structure by checkParts, one
// parallel pass: every position a window inside its block, ascending
// inside its slot, the directory ascending, offsets ascending from 0 to
// len(Pos). Each checked block then is a part: its three arrays (which
// may alias an mmap'd file) are adopted, not copied, its directory takes
// the form its own size calls for, and the same pass fills the bitmap
// of a dense one.
//
// Whether each window holds its slot's code is not proven here but on
// first read: each part proves a slot when an engine first reads it
// (Part.Prove), and the index is revoked if a proof fails in any part.
func FromBlocks(b *bank.Bank, opts Options, blocks []BlockParts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromBlocks: invalid W=%d", opts.W)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("index: FromBlocks: no blocks")
	}
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
		wantSeq = bp.SeqHi
	}
	if wantSeq != b.NumSeqs() {
		return nil, fmt.Errorf("index: FromBlocks: blocks cover %d sequences, bank has %d", wantSeq, b.NumSeqs())
	}

	parts := make([]Part, len(blocks))
	for i := range blocks {
		bp := &blocks[i]
		var bitmap []uint64
		if denseDirectory(len(bp.Codes), opts.W) {
			bitmap = make([]uint64, (seed.NumCodes(opts.W)+63)/64)
		}
		if err := checkParts(b, opts, bp, bitmap); err != nil {
			return nil, fmt.Errorf("index: FromBlocks: block %d: %w", i, err)
		}
		parts[i] = newPart(opts, bp, bitmap)
		parts[i].done = make([]atomic.Uint64, (len(bp.Codes)+63)/64)
	}
	ix := assemble(b, opts, parts)
	ix.proof = &proof{}
	return ix, nil
}
