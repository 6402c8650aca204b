// Block-structured index assembly for the .orix on-disk format.
//
// A block is a self-contained CSR slice of a bank's index over one
// contiguous sequence range [SeqLo, SeqHi): every indexed occurrence
// whose position falls in the corresponding Data range, in the same
// code-major, position-minor order the whole-bank index uses, under the
// same sorted code directory and block-local Offsets. Because bank
// coordinates are append-stable and no seed window straddles a sequence
// boundary (the sentinel byte makes such a window invalid), a block's
// content depends only on its own Data range — which is what makes the
// three block operations exact:
//
//   - Index.Block presents a built index as the one block over the
//     whole bank it already is, sharing its arrays;
//   - BuildBlock runs the build routine over only the block's own Data
//     range (the O(suffix) append path) — Build is the same routine
//     over the whole array;
//   - FromBlocks reassembles the whole-bank index from a tiling of
//     blocks, byte-identical to Build.
//
// The invariant tying them together, tested in blocks_test.go: for any
// tiling of b by BuildBlock, FromBlocks(tiling) == Build(b), array for
// array, and Build(b).Block() == BuildBlock over the whole bank.
package index

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/seed"
)

// BlockParts is one index block — what the build routine produces, what
// one .orix block holds, and what FromBlocks assembles an Index from.
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
// BuildBlock over the suffix, never a rescan of the prefix. The result
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
//   - Dust masking: the masker splits runs at invalid bytes (sentinels
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
	p := buildRange(b, opts, dataLo, dataHi)
	p.SeqLo, p.SeqHi, p.DataLo, p.DataHi = seqLo, seqHi, dataLo, dataHi
	return p, nil
}

// Block returns ix as the one block over its whole bank that it already
// is — what a fresh save writes. Offsets and Pos are the index's own
// arrays, and so is Codes on a sparse index, not copies (read-only); on
// a dense index Codes is regenerated (Directory) and lives only as long
// as the block.
func (ix *Index) Block() BlockParts {
	return BlockParts{
		SeqLo: 0, SeqHi: ix.Bank.NumSeqs(),
		DataLo: ix.Bank.PrefixLen(0), DataHi: len(ix.Bank.Data),
		Codes: ix.Directory(), Offsets: ix.Offsets, Pos: ix.Pos,
		MaskedOut: ix.MaskedOut, SampledOut: ix.SampledOut,
	}
}

// FromBlocks reassembles the whole-bank index from blocks tiling
// [0, b.NumSeqs()), as if Build(b, opts) had produced it. The blocks
// are untrusted (they come from disk files). The tiling is checked —
// contiguous sequence ranges, Data bounds matching the bank's real
// prefix boundaries — and each block's structure by checkParts, one
// parallel pass: every position a window inside its block, ascending
// inside its slot, the directory ascending, offsets ascending from 0 to
// len(Pos). A single block already is the index: its three arrays (which
// may alias an mmap'd file) are adopted, not copied, and the same pass
// fills the bitmap of a dense index. Several blocks are merged: their
// sorted directories merged and each code's runs concatenated in block
// order — positions in block k all precede positions in block k+1, so
// the concatenation is CSR order, and checked blocks merge into checked
// parts.
//
// Whether each window holds its slot's code is not proven here but on
// first read: the index returned proves a slot when an engine first
// reads it (Index.Prove), and is revoked if a proof fails.
func FromBlocks(b *bank.Bank, opts Options, blocks []BlockParts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromBlocks: invalid W=%d", opts.W)
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("index: FromBlocks: no blocks")
	}
	var p BlockParts
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
		p.MaskedOut += bp.MaskedOut
		p.SampledOut += bp.SampledOut
		wantSeq = bp.SeqHi
	}
	if wantSeq != b.NumSeqs() {
		return nil, fmt.Errorf("index: FromBlocks: blocks cover %d sequences, bank has %d", wantSeq, b.NumSeqs())
	}

	var bitmap []uint64
	if len(blocks) == 1 {
		bp := &blocks[0]
		p.Codes, p.Offsets, p.Pos = bp.Codes, bp.Offsets, bp.Pos
		if denseDirectory(len(bp.Codes), opts.W) {
			bitmap = make([]uint64, (seed.NumCodes(opts.W)+63)/64)
		}
		if err := checkParts(b, opts, bp, bitmap); err != nil {
			return nil, fmt.Errorf("index: FromBlocks: %w", err)
		}
	} else {
		for i := range blocks {
			if err := checkParts(b, opts, &blocks[i], nil); err != nil {
				return nil, fmt.Errorf("index: FromBlocks: block %d: %w", i, err)
			}
		}
		mergeBlocks(&p, blocks)
	}
	ix := assemble(b, opts, p, bitmap)
	ix.proof = &proof{done: make([]atomic.Uint64, (ix.NumCodes()+63)/64)}
	return ix, nil
}

// mergeBlocks fills p's arrays from checked blocks in ascending Data
// order by a k-way merge of their ascending directories. The cursors
// come up in (code, block) order, so a code's occurrences arrive in
// block order — ascending position — and are copied as they arrive, a
// run of directory entries at a time (an appended-to file is one large
// block and a few small ones), each run's block-local offsets rebased
// onto where its occurrences land. Nothing is allocated beyond the three
// output arrays and one cursor a block: the directories are walked once
// to count the distinct codes, once to fill.
func mergeBlocks(p *BlockParts, blocks []BlockParts) {
	m := dirMerge{blocks: blocks, heads: make([]dirHead, 0, len(blocks))}
	distinct := 0
	var last seed.Code
	for m.reset(); len(m.heads) > 0; {
		h, n := m.nextRun()
		if distinct > 0 && h.code == last {
			distinct-- // the run opens on the code the last one closed on
		}
		distinct += n
		last = blocks[h.block].Codes[int(h.entry)+n-1]
	}
	indexed := 0
	for i := range blocks {
		indexed += len(blocks[i].Pos)
	}
	p.Codes = make([]seed.Code, 0, distinct)
	p.Offsets = make([]int32, 0, distinct+1)
	p.Pos = make([]int32, 0, indexed)
	for m.reset(); len(m.heads) > 0; {
		h, n := m.nextRun()
		bp := &blocks[h.block]
		codes, offs := bp.Codes[h.entry:][:n], bp.Offsets[h.entry:][:n+1]
		rebase := int32(len(p.Pos)) - offs[0]
		p.Pos = append(p.Pos, bp.Pos[offs[0]:offs[n]]...)
		if len(p.Codes) > 0 && codes[0] == p.Codes[len(p.Codes)-1] {
			// That slot stays open and takes these occurrences too.
			codes, offs = codes[1:], offs[1:]
		}
		p.Codes = append(p.Codes, codes...)
		for _, o := range offs[:len(codes)] {
			p.Offsets = append(p.Offsets, o+rebase)
		}
	}
	p.Offsets = append(p.Offsets, int32(len(p.Pos)))
}

// dirHead is one block's cursor in a directory merge: the directory
// entry it stands on and that entry's code.
type dirHead struct {
	code         seed.Code
	block, entry int32
}

func (a dirHead) before(b dirHead) bool {
	return a.code < b.code || a.code == b.code && a.block < b.block
}

// dirMerge reads the directories of several blocks as one sequence
// ascending in (code, block): a binary min-heap of one cursor a block.
type dirMerge struct {
	blocks []BlockParts
	heads  []dirHead
}

// reset puts a cursor on the first entry of every non-empty directory.
func (m *dirMerge) reset() {
	m.heads = m.heads[:0]
	for i := range m.blocks {
		if codes := m.blocks[i].Codes; len(codes) > 0 {
			m.heads = append(m.heads, dirHead{code: codes[0], block: int32(i)})
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.sift(i)
	}
}

// nextRun returns the least cursor and the number of entries of its
// block's directory, from the cursor on, that come before every other
// cursor — the one it stands on, then every entry whose code is below
// the runner-up's — and moves the cursor past them, dropping it at the
// end of the directory.
func (m *dirMerge) nextRun() (h dirHead, n int) {
	h = m.heads[0]
	limit := uint64(math.MaxUint64) // no other cursor: the rest of the directory
	for c := 1; c <= 2 && c < len(m.heads); c++ {
		limit = min(limit, uint64(m.heads[c].code))
	}
	codes := m.blocks[h.block].Codes[h.entry:]
	for n = 1; n < len(codes) && uint64(codes[n]) < limit; n++ {
	}
	if n < len(codes) {
		m.heads[0] = dirHead{code: codes[n], block: h.block, entry: h.entry + int32(n)}
	} else {
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	}
	m.sift(0)
	return h, n
}

// sift restores the heap below slot i.
func (m *dirMerge) sift(i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(m.heads); c++ {
			if m.heads[c].before(m.heads[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		m.heads[i], m.heads[least] = m.heads[least], m.heads[i]
		i = least
	}
}
