// The validation boundary of a stored index (DESIGN.md §7), in two
// halves. A load proves structure: checkParts is one parallel pass over
// a block's Codes, Offsets and Pos that reads no bank byte, and what it
// proves — offsets that tile Pos, every position a window inside its
// block, ascending inside its slot — is all that reading Pos and the
// bank under it needs to stay in bounds. A window is proven where it is
// first read: Prove runs the window test over one directory slot the
// first time an engine is about to extend from it, so an index pays for
// the windows a workload touches, not for the whole bank on every load.

package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/seed"
)

// checkParts validates an untrusted block against bank b, in one
// parallel pass over slot ranges that reads Codes, Offsets and Pos and
// no byte of b.Data:
//
//   - one offset per code and one more, strictly ascending from 0 to
//     len(Pos), so that no slot is empty;
//   - codes strictly ascending inside [0, 4^W);
//   - positions strictly ascending inside each slot, each the start of
//     a W-window inside the block's Data range: DataLo ≤ p and
//     p+W ≤ DataHi.
//
// The block's ranges themselves are FromBlocks' to check. When bitmap
// is non-nil the pass sets the bit of every code — each shard the words
// of its own codes, so shard cuts never split one.
//
// What it does not prove is that a window holds its slot's code: a
// loaded index proves that on first read (Part.Prove). Structure is
// what reading stays inside on: the engines load Pos and Data under a
// position before any window test, and the test itself reads W bytes
// from it.
//
//scorislint:validator
func checkParts(b *bank.Bank, opts Options, bp *BlockParts, bitmap []uint64) error {
	n := len(bp.Codes)
	if len(bp.Offsets) != n+1 || bp.Offsets[0] != 0 || int(bp.Offsets[n]) != len(bp.Pos) {
		return fmt.Errorf("index: %d offsets for %d codes and %d positions, want %d from 0 to %d",
			len(bp.Offsets), n, len(bp.Pos), n+1, len(bp.Pos))
	}
	if bp.DataLo < 0 || bp.DataHi > len(b.Data) {
		return fmt.Errorf("index: Data range [%d,%d) outside the bank's %d bytes", bp.DataLo, bp.DataHi, len(b.Data))
	}
	workers := buildWorkers(opts, len(bp.Pos))
	cuts := make([]int, workers+1)
	cuts[workers] = n
	for s := 1; s < workers; s++ {
		c := max(s*n/workers, cuts[s-1])
		for bitmap != nil && c > 0 && c < n && bp.Codes[c]/64 == bp.Codes[c-1]/64 {
			c++
		}
		cuts[s] = c
	}

	// The offsets at the cuts must ascend, which keeps every shard's
	// occurrences inside Pos and apart from the other shards'. Each
	// shard's codes must lie below the code at the next cut, rounded down
	// to a bitmap word when there is a bitmap. With the first codes of
	// the shards ascending, those bounds keep every shard to bitmap words
	// no other shard writes, however hostile the directory.
	space := seed.Code(seed.NumCodes(opts.W))
	limits := make([]seed.Code, workers)
	for s := range limits {
		if c0, c := cuts[s], cuts[s+1]; c0 < c && bp.Offsets[c0] >= bp.Offsets[c] {
			return fmt.Errorf("index: offset %d at directory entry %d not above offset %d at entry %d",
				bp.Offsets[c], c, bp.Offsets[c0], c0)
		}
		limits[s] = space
		if c := cuts[s+1]; c < n {
			if bp.Codes[c] >= space || cuts[s] < c && bp.Codes[cuts[s]] >= bp.Codes[c] {
				return fmt.Errorf("index: code %d at directory entry %d not strictly ascending inside the 4^%d code space", bp.Codes[c], c, opts.W)
			}
			limits[s] = bp.Codes[c]
			if bitmap != nil {
				limits[s] &^= 63
			}
		}
	}
	errs := make([]error, workers)
	runShards(workers, func(s int) {
		errs[s] = checkShard(bp, opts.W, cuts[s], cuts[s+1], limits[s], bitmap)
	})
	return errors.Join(errs...)
}

// checkShard is checkParts' pass over directory entries [i0, i1) of bp,
// whose offsets at i0 and i1 checkParts has found ascending inside Pos:
// codes strictly ascending and below limit, offsets strictly ascending
// and below the one at i1, positions strictly ascending inside each slot
// and windows of w bases inside the block. It sets the shard's codes in
// bitmap when it is non-nil.
//
// Slots hold two positions or so each, so a loop per slot would stop
// at an unpredictable count every other position. The positions are
// checked as one run instead, without a branch that depends on them:
// they ascend inside every slot exactly when each descent in the run
// falls on a slot's first position, and lie inside the block's windows
// exactly when the run's least and greatest do.
func checkShard(bp *BlockParts, w, i0, i1 int, limit seed.Code, bitmap []uint64) error {
	codes, offsets, pos := bp.Codes, bp.Offsets, bp.Pos
	first, end := offsets[i0], offsets[i1]
	prev := int64(-1)
	if i0 > 0 {
		prev = int64(codes[i0-1])
	}
	starts := 0 // descents onto a slot's first position
	for i := i0; i < i1; i++ {
		c := codes[i]
		if int64(c) <= prev || c >= limit {
			return fmt.Errorf("index: code %d at directory entry %d not strictly ascending inside the 4^%d code space", c, i, w)
		}
		prev = int64(c)
		if bitmap != nil {
			bitmap[c/64] |= 1 << (c % 64)
		}
		if i > i0 {
			// Below end, not only above the offset before it: the slot it
			// opens must close inside the shard, and pos[at] exist.
			at := offsets[i]
			if at <= offsets[i-1] || at >= end {
				return fmt.Errorf("index: offset %d at directory entry %d not strictly between offsets %d and %d",
					at, i, offsets[i-1], end)
			}
			starts += descends(pos[at-1], pos[at])
		}
	}
	run := pos[first:end]
	if len(run) == 0 {
		return nil
	}
	descents, least, most := 0, run[0], run[0]
	for j := 1; j < len(run); j++ {
		p := run[j]
		descents += descends(run[j-1], p)
		least, most = min(least, p), max(most, p)
	}
	if descents != starts || least < int32(bp.DataLo) || int(most)+w > bp.DataHi {
		return fmt.Errorf("index: a position of directory entries [%d,%d) is not an ascending W=%d window inside Data range [%d,%d)",
			i0, i1, w, bp.DataLo, bp.DataHi)
	}
	return nil
}

// descends is 1 when b ≤ a and 0 otherwise, computed without a branch.
func descends(a, b int32) int { return int(uint64(int64(b)-int64(a)-1) >> 63) }

// proof is a loaded index's record of whether a window proof has
// failed. Which slots are proven is each part's (Part.done: set bits
// are never cleared); a failed proof in any part revokes the whole
// index.
type proof struct {
	revoked atomic.Bool
	// onRevoke runs once, on the goroutine whose proof failed first. It
	// is set by the loader before the index is shared (OnRevoke).
	onRevoke func()
}

// Loaded reports whether ix came from FromBlocks and so proves a slot's
// windows the first time it is read (Part.Prove). A built index has
// nothing to prove.
func (ix *Index) Loaded() bool { return ix.proof != nil }

// Revoked reports whether a proof on ix has failed: some stored window
// is not what its slot says, and ix must not be served again.
func (ix *Index) Revoked() bool { return ix.proof != nil && ix.proof.revoked.Load() }

// OnRevoke registers f to run once, when a proof on ix first fails —
// the loader's hook to forget the index and the file it came from. Call
// it before ix is shared. A no-op on a built index, which never fails.
func (ix *Index) OnRevoke(f func()) {
	if ix.proof != nil {
		ix.proof.onRevoke = f
	}
}

// Prove proves, on a part of a loaded index, that every occurrence of
// slot — whose code the caller has found to be c (the join's code, or
// Slot's) — is a window of W valid bases that encodes to c, and returns
// the number of windows it checked: 0 when the slot was proven before,
// or on a built index. An engine calls it before extending from any
// occurrence of the slot. A failed proof revokes the index: that proof,
// and every later one not yet settled in any part, returns an error.
//
// Concurrent first readers of one slot may each prove it; the proof
// reads only immutable data, so that costs time, never correctness.
func (q *Part) Prove(slot int32, c seed.Code) (windows int, err error) {
	if q.done == nil || q.done[uint32(slot)/64].Load()>>(uint32(slot)%64)&1 != 0 {
		return 0, nil
	}
	return q.proveSlot(slot, c)
}

// ProvenOcc is Occ for a caller about to extend from the occurrences
// (the BLAT tile probe): on a loaded index the slot is proven first, and
// proven is the number of windows that took (see Prove).
func (q *Part) ProvenOcc(c seed.Code) (occ []int32, proven int, err error) {
	i, found := q.Slot(c)
	if !found {
		return nil, 0, nil
	}
	if proven, err = q.Prove(int32(i), c); err != nil {
		return nil, 0, err
	}
	return q.Pos[q.Offsets[i]:q.Offsets[i+1]], proven, nil
}

// proveSlot is Prove's first read of a slot.
//
//scorislint:hotpath
func (q *Part) proveSlot(slot int32, c seed.Code) (int, error) {
	ix := q.ix
	pf := ix.proof
	if pf.revoked.Load() {
		return 0, errors.New("index: revoked by a failed window proof")
	}
	occ := q.Pos[q.Offsets[slot]:q.Offsets[slot+1]]
	if i := badWindow(ix.Bank.Data, ix.W, c, occ); i >= 0 {
		if pf.revoked.CompareAndSwap(false, true) && pf.onRevoke != nil {
			pf.onRevoke()
		}
		return 0, fmt.Errorf("index: the W=%d window at position %d does not encode to code %d of its slot", ix.W, occ[i], c)
	}
	q.done[uint32(slot)/64].Or(1 << (uint32(slot) % 64))
	return len(occ), nil
}

// badWindow returns the index in positions of the first that does not
// start a W-window of data encoding to c, or -1. Every position must
// satisfy p+W ≤ len(data) (checkParts proved it). The code is spread
// once into the bytes its windows must hold — two words, since W ≤ 15 —
// and each position is then two masked word compares. An ambiguous base
// or a sentinel differs from every base, so "valid" needs no test of its
// own.
func badWindow(data []byte, w int, c seed.Code, positions []int32) int {
	maskLo, maskHi := ^uint64(0), uint64(0)
	if w < 8 {
		maskLo = 1<<(8*uint(w)) - 1
	} else {
		maskHi = 1<<(8*uint(w-8)) - 1
	}
	wantLo, wantHi := spreadBases(uint64(c)), spreadBases(uint64(c)>>16)
	for i, pos := range positions {
		var lo, hi uint64
		if int(pos)+16 <= len(data) {
			lo, hi = binary.LittleEndian.Uint64(data[pos:]), binary.LittleEndian.Uint64(data[pos+8:])
		} else {
			var tail [16]byte
			copy(tail[:], data[pos:])
			lo, hi = binary.LittleEndian.Uint64(tail[:]), binary.LittleEndian.Uint64(tail[8:])
		}
		if (lo^wantLo)&maskLo|(hi^wantHi)&maskHi != 0 {
			return i
		}
	}
	return -1
}

// spreadBases expands the low 16 bits of c — eight 2-bit bases, the
// first in the lowest bits — into eight bytes, base i in byte i: the
// little-endian word a seed window of those bases reads as.
func spreadBases(c uint64) uint64 {
	c &= 0xFFFF
	c = (c | c<<24) & 0x000000FF000000FF
	c = (c | c<<12) & 0x000F000F000F000F
	c = (c | c<<6) & 0x0303030303030303
	return c
}
