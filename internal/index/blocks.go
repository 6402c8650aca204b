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

// Block returns ix as the one block over its whole bank that it already
// is — what a fresh save writes. Pos is the index's own array, and so
// is Codes on a sparse index, not copies (read-only); Counts, the
// differences of Offsets, is computed, and so is Codes on a dense index
// (Directory), which lives only as long as the block.
func (ix *Index) Block() BlockParts {
	counts := make([]int32, ix.NumCodes())
	for i := range counts {
		counts[i] = ix.Offsets[i+1] - ix.Offsets[i]
	}
	return BlockParts{
		SeqLo: 0, SeqHi: ix.Bank.NumSeqs(),
		DataLo: ix.Bank.PrefixLen(0), DataHi: len(ix.Bank.Data),
		Codes: ix.Directory(), Counts: counts, Pos: ix.Pos,
		MaskedOut: ix.MaskedOut, SampledOut: ix.SampledOut,
	}
}

// FromBlocks reassembles the whole-bank index from blocks tiling
// [0, b.NumSeqs()), as if Build(b, opts) had produced it. The blocks
// are untrusted (they come from disk files). The tiling is checked —
// contiguous sequence ranges, Data bounds matching the bank's real
// prefix boundaries — and each block's structure by checkParts, one
// parallel pass: every position a window inside its block, ascending
// inside its slot, the directory ascending, counts consistent. A single
// block already is the index: its arrays (which may alias an mmap'd
// file) are adopted, not copied, and the same pass computes Offsets and,
// on a dense index, the bitmap. Several blocks are merged: their sorted
// directories merged and each code's runs concatenated in block order —
// positions in block k all precede positions in block k+1, so the
// concatenation is CSR order, and checked blocks merge into checked
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
		p.Indexed += len(bp.Pos)
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
		p.Codes, p.Pos = bp.Codes, bp.Pos
		p.Offsets = make([]int32, len(bp.Codes)+1)
		if denseDirectory(len(bp.Codes), opts.W) {
			bitmap = make([]uint64, (seed.NumCodes(opts.W)+63)/64)
		}
		if err := checkParts(b, opts, bp, p.Offsets, bitmap); err != nil {
			return nil, fmt.Errorf("index: FromBlocks: %w", err)
		}
	} else {
		for i := range blocks {
			if err := checkParts(b, opts, &blocks[i], nil, nil); err != nil {
				return nil, fmt.Errorf("index: FromBlocks: block %d: %w", i, err)
			}
		}
		mergeBlocks(&p, blocks)
	}
	ix := assemble(b, opts, p, bitmap)
	ix.proof = &proof{done: make([]atomic.Uint64, (ix.NumCodes()+63)/64)}
	return ix, nil
}

// mergeBlocks fills p's arrays (p.Indexed is already the total) from
// checked blocks in ascending Data order by a k-way merge of their
// ascending directories. The cursors come up in (code, block) order, so
// a code's occurrences arrive in block order — ascending position — and
// are copied as they arrive, a run of directory entries at a time (an
// appended-to file is one large block and a few small ones). Nothing is
// allocated beyond the three output arrays and two words a block: the
// directories are walked once to count the distinct codes, once to fill.
func mergeBlocks(p *Parts, blocks []BlockParts) {
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
	p.Codes = make([]seed.Code, 0, distinct)
	p.Offsets = make([]int32, 0, distinct+1)
	p.Pos = make([]int32, p.Indexed)
	occ := make([]int32, len(blocks)) // each block's first uncopied occurrence
	var dst int32
	for m.reset(); len(m.heads) > 0; {
		h, n := m.nextRun()
		bp := &blocks[h.block]
		codes, counts := bp.Codes[h.entry:][:n], bp.Counts[h.entry:][:n]
		from := dst
		if len(p.Codes) > 0 && codes[0] == p.Codes[len(p.Codes)-1] {
			// That slot stays open and takes these occurrences too.
			dst += counts[0]
			codes, counts = codes[1:], counts[1:]
		}
		p.Codes = append(p.Codes, codes...)
		for _, k := range counts {
			p.Offsets = append(p.Offsets, dst)
			dst += k
		}
		occ[h.block] += int32(copy(p.Pos[from:dst], bp.Pos[occ[h.block]:]))
	}
	p.Offsets = append(p.Offsets, dst)
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
