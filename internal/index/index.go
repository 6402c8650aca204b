// Package index implements the ORIS bank index of paper §2.1 / Fig. 2
// as an inverted file sized by the bank: Codes, the ascending directory
// of the seed codes the bank actually contains; Offsets, one entry per
// directory slot plus one; Top, a coarse directory over Codes — where
// the codes of each top-bits bucket begin, a sixteenth of Codes in size
// — through which a code is found in one short probe (Slot) that waits
// for no other; and one flat, cache-contiguous occurrence
// array Pos holding every indexed position, grouped by seed code and
// position-sorted inside each group. The occurrences of Codes[i] are
// Pos[Offsets[i]:Offsets[i+1]], a contiguous []int32 view, so step 2's
// sweep over the seed codes reads the occurrence lists sequentially —
// the paper's whole speed argument ("all the portions of sequence
// having the same seed are implicitly and simultaneously moved into the
// cache") realized as an actual memory layout. Nothing is sized by 4^W:
// a 16-read query bank costs kilobytes, not the 16 MB a dense
// dictionary would (see DESIGN.md §2).
//
// Positions are all the index stores per occurrence — the paper's one
// 4-byte INDEX entry per indexed position. The extension loops need no
// per-occurrence record bounds: every sequence in bank.Data is bracketed
// by sentinel bytes that never match, so an extension ends on the bank's
// own data (package hsp).
//
// The build is scan → sort → emit: a sharded scan over ascending bank
// ranges appends one packed code<<32|pos word per accepted window, a
// stable LSD radix sort on the code's 11-bit digits puts the words in
// CSR order (positions arrive ascending, so stability keeps them
// ascending inside each code), and one linear pass emits Pos, Codes and
// Offsets. The output is canonical — byte-identical
// for any worker count — because the shards cover ascending position
// ranges and are concatenated in shard order before the sort.
//
// The index keeps the paper's two refinements:
//
//   - low-complexity filtering (§2.1): masked W-words are simply not
//     inserted; the mask test is O(1) per window via a prefix-sum of
//     masked positions;
//   - asymmetric indexing (§3.4): with SampleStep=2 only every other
//     position of the bank is inserted, which with W=10 still catches
//     every 11-nt match while halving the index.
//
// # Reuse contract
//
// A built Index is immutable: Build is the only writer, nothing
// mutates the arrays afterwards, and every accessor returns views or
// copies. Any number of goroutines may therefore read one Index
// concurrently without synchronization, and an Index may be held and
// reused for as long as its bank lives. The converse bound: an Index
// is valid only for the exact (bank, Options) pair it was built from —
// the bank whose Data it indexed and the exact W, sampling schedule,
// and dust parameters (Workers changes nothing: the build is canonical
// for any worker count). Callers that reuse indexes across comparisons
// should go through package ixcache, which keys cached builds by
// exactly that identity and whose consumers (core.CompareWithIndex,
// blat.CompareWithIndex) verify it before running.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/seed"
)

// Options configures index construction.
type Options struct {
	// W is the seed length in nucleotides (paper default 11).
	W int
	// Dust, when non-nil, masks low-complexity W-words out of the index.
	Dust *dust.Masker
	// SampleStep inserts only positions p with p % SampleStep ==
	// SamplePhase (in bank Data coordinates). 0 or 1 means every
	// position. SampleStep=2 is the paper's "half words" mode.
	SampleStep int
	// SamplePhase selects which residue class SampleStep keeps.
	SamplePhase int
	// Workers bounds build parallelism; 0 means GOMAXPROCS. The built
	// index is identical for every worker count.
	Workers int
}

// Normalized returns o in the canonical form Build uses and a built
// index's Options() reports: SampleStep < 1 becomes 1 and SamplePhase
// is reduced into [0, SampleStep). Cache keys and the on-disk store
// derive their identity fields from this form so equivalent option
// spellings alias to one artifact.
func (o Options) Normalized() Options { return o.normalized() }

func (o Options) normalized() Options {
	if o.SampleStep < 1 {
		o.SampleStep = 1
	}
	o.SamplePhase %= o.SampleStep
	if o.SamplePhase < 0 {
		o.SamplePhase += o.SampleStep
	}
	return o
}

// Index is the built CSR structure.
type Index struct {
	Bank *bank.Bank
	W    int

	// Codes lists the seed codes the bank contains, strictly ascending —
	// the directory step 2 joins with the other bank's and point lookups
	// (Slot) search, a bucket of Top at a time.
	Codes []seed.Code
	// Offsets has len(Codes)+1 entries, strictly increasing from 0 to
	// Indexed: the occurrences of Codes[i] are Pos[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	// Pos is the flat occurrence array, length Indexed, grouped by code
	// and ascending inside each group.
	Pos []int32
	// Top is the coarse directory over Codes that Slot resolves a code
	// through: 2^k+1 entries, Top[h] the first slot whose code's top k
	// bits are ≥ h (Top[2^k] = len(Codes)), so the codes sharing top bits
	// h are Codes[Top[h]:Top[h+1]]. k is the smallest that leaves a bucket
	// ≤ topBucket codes when the bank's codes spread evenly. Derived from
	// Codes by assemble, never stored: it is under half a byte a code.
	Top []int32

	// Indexed is the number of positions inserted.
	Indexed int
	// MaskedOut counts seed windows rejected by the dust filter.
	MaskedOut int
	// SampledOut counts windows skipped by SampleStep.
	SampledOut int

	topShift uint // a code's Top bucket is code >> topShift
	opts     Options
}

// minParallelData is the Data range below which the build stays serial;
// goroutine + shard bookkeeping costs more than it saves under ~64 KB.
const minParallelData = 1 << 16

// buildWorkers picks the shard count for a build over dataLen bytes.
func buildWorkers(opts Options, dataLen int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if dataLen < minParallelData {
		return 1
	}
	return w
}

// scanRange reports every valid W-window starting in Data positions
// [lo,hi). The scan reads ahead up to W-1 bytes past hi so windows that
// straddle a shard cut are still seen by exactly one shard (the one
// owning their start position).
func scanRange(data []byte, w, lo, hi int, fn func(pos int32, c seed.Code)) {
	end := hi + w - 1
	if end > len(data) {
		end = len(data)
	}
	base := int32(lo)
	seed.ForEach(data[lo:end], w, func(rel int32, c seed.Code) {
		fn(base+rel, c)
	})
}

// Build constructs the index for a bank: the one build routine run over
// the whole Data array.
func Build(b *bank.Bank, opts Options) *Index {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		panic(fmt.Sprintf("index: invalid W=%d", opts.W))
	}
	return assemble(b, opts, buildRange(b, opts, 0, len(b.Data)))
}

// digitBits is the radix of the build's sort: 11-bit digits, so W=11
// sorts in two passes over 2 × 2,048 counters.
const digitBits = 11

// buildRange is the build: scan → sort → emit over the windows starting
// in Data range [dataLo, dataHi), which must not cut a sequence (no
// window straddles a sentinel, so the range's content depends on
// nothing outside it). opts must be normalized.
//
// Scan and sort run in a frame of their own so that their scratch (the
// dust prefix, the sort's second buffer: 12 bytes a position) is
// unreachable once they return. The emit loops make no calls, so a
// concurrent collection preempts them asynchronously and scans this
// frame conservatively: a stale slot pointing at dead scratch keeps it
// alive for that cycle and doubles the heap goal from there (DESIGN.md
// §2).
func buildRange(b *bank.Bank, opts Options, dataLo, dataHi int) Parts {
	sorted, p := scanSorted(b, opts, dataLo, dataHi)
	n := p.Indexed
	workers := buildWorkers(opts, dataHi-dataLo)

	// ---- emit: Pos streams out in index order, sharded; each shard also
	// counts the directory entries that start in it ----
	p.Pos = make([]int32, n)
	starts := make([]int, workers)
	runShards(workers, func(sid int) {
		k := 0
		for i := sid * n / workers; i < (sid+1)*n/workers; i++ {
			if i == 0 || sorted[i]>>32 != sorted[i-1]>>32 {
				k++
			}
			p.Pos[i] = int32(uint32(sorted[i]))
		}
		starts[sid] = k
	})
	numCodes := 0
	for _, k := range starts {
		numCodes += k
	}
	p.Codes = make([]seed.Code, 0, numCodes)
	p.Offsets = make([]int32, 0, numCodes+1)
	for i, v := range sorted {
		if i == 0 || v>>32 != sorted[i-1]>>32 {
			p.Codes = append(p.Codes, seed.Code(v>>32))
			p.Offsets = append(p.Offsets, int32(i))
		}
	}
	p.Offsets = append(p.Offsets, int32(n))
	return p
}

// scanSorted is the build's first two stages: it returns the packed
// code<<32|pos word of every accepted window of the range in CSR order,
// and the counters (Indexed is the number of words).
func scanSorted(b *bank.Bank, opts Options, dataLo, dataHi int) ([]uint64, Parts) {
	data := b.Data
	w := opts.W
	w32 := int32(w)
	step := opts.SampleStep
	step32, phase := int32(step), int32(opts.SamplePhase)
	base := int32(dataLo)

	// O(N) dust preprocessing: a prefix count of masked positions (in
	// range-local coordinates) makes the per-window test a single
	// subtraction instead of a W-bit scan. The masker splits runs at
	// sentinels, so masking the range alone agrees with a whole-bank pass.
	var maskPfx []int32
	if opts.Dust != nil {
		maskPfx = opts.Dust.MaskPrefix(data[dataLo:dataHi])
	}

	// ---- scan: shards over ascending ranges, each filling its own
	// region of one buffer with packed code<<32|pos words (pos needs 31
	// bits, code ≤ 30). A region is sized for every sampled position of
	// its shard, so an indexed write can never spill into the next ----
	workers := buildWorkers(opts, dataHi-dataLo)
	cuts := make([]int, workers+1)
	regions := make([]int, workers+1)
	for i := range cuts {
		cuts[i] = dataLo + i*(dataHi-dataLo)/workers
		if i > 0 {
			regions[i] = regions[i-1] + (cuts[i]-cuts[i-1]+step-1)/step
		}
	}
	words := make([]uint64, regions[workers])
	type tally struct{ indexed, masked, sampled int }
	tallies := make([]tally, workers)
	runShards(workers, func(sid int) {
		region := words[regions[sid]:regions[sid+1]]
		var t tally // shard-local: neighbours in tallies would share a cache line
		scanRange(data, w, cuts[sid], cuts[sid+1], func(pos int32, c seed.Code) {
			if step32 > 1 && pos%step32 != phase {
				t.sampled++
				return
			}
			if maskPfx != nil && maskPfx[pos-base+w32] != maskPfx[pos-base] {
				t.masked++
				return
			}
			region[t.indexed] = uint64(c)<<32 | uint64(pos)
			t.indexed++
		})
		tallies[sid] = t
	})
	// Close the gaps between regions: shard order is position order.
	var p Parts
	for sid, t := range tallies {
		copy(words[p.Indexed:], words[regions[sid]:regions[sid]+t.indexed])
		p.Indexed += t.indexed
		p.MaskedOut += t.masked
		p.SampledOut += t.sampled
	}
	n := p.Indexed

	// ---- sort: stable LSD radix on the code's digits. Positions arrived
	// ascending, so they stay ascending inside each code ----
	return sortByCode(words[:n], make([]uint64, n), w), p
}

// sortByCode stably sorts packed code<<32|pos words by code, one
// counting pass per digitBits-wide digit of the 2w-bit code, ping-ponging
// between a and tmp (same length). It returns whichever holds the result.
func sortByCode(a, tmp []uint64, w int) []uint64 {
	const mask = 1<<digitBits - 1
	passes := (2*w + digitBits - 1) / digitBits
	var hist [(2*seed.MaxW + digitBits - 1) / digitBits][1 << digitBits]int32
	for _, v := range a {
		for d := 0; d < passes; d++ {
			hist[d][v>>(32+digitBits*d)&mask]++
		}
	}
	for d := 0; d < passes; d++ {
		h := &hist[d]
		var sum int32
		for i, k := range h {
			h[i] = sum
			sum += k
		}
		shift := 32 + digitBits*d
		for _, v := range a {
			k := v >> shift & mask
			tmp[h[k]] = v
			h[k]++
		}
		a, tmp = tmp, a
	}
	return a
}

// runShards executes fn(0..workers-1), concurrently when workers > 1.
func runShards(workers int, fn func(sid int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for sid := 0; sid < workers; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			fn(sid)
		}(sid)
	}
	wg.Wait()
}

// Parts holds the components of a built Index — what the build routine
// produces and what FromParts reassembles. The slices may alias
// read-only memory (an mmap'd file section): nothing in this package
// writes to a reassembled Index, per the immutability contract above.
type Parts struct {
	Codes        []seed.Code
	Offsets, Pos []int32
	Indexed      int
	MaskedOut    int
	SampledOut   int
}

// Parts returns the components of ix. The slices are the index's own
// arrays, not copies; callers must treat them as read-only.
func (ix *Index) Parts() Parts {
	return Parts{
		Codes: ix.Codes, Offsets: ix.Offsets, Pos: ix.Pos,
		Indexed: ix.Indexed, MaskedOut: ix.MaskedOut, SampledOut: ix.SampledOut,
	}
}

// assemble binds parts to the (bank, options) they were built or
// validated for, and derives Top from their directory. opts must be
// normalized and every code below 4^W.
func assemble(b *bank.Bank, opts Options, p Parts) *Index {
	ix := &Index{
		Bank: b, W: opts.W,
		Codes: p.Codes, Offsets: p.Offsets, Pos: p.Pos,
		Indexed: p.Indexed, MaskedOut: p.MaskedOut, SampledOut: p.SampledOut,
		opts: opts,
	}
	ix.Top, ix.topShift = topDirectory(p.Codes, opts.W)
	return ix
}

// topBucket is the number of codes a Top bucket holds when the
// directory's codes spread evenly over the code space: one cache line of
// Codes, four probes of a binary search.
const topBucket = 16

// topDirectory derives the coarse directory of an ascending code list
// below 4^w (see Index.Top) in one pass, and the shift that takes a code
// to its bucket.
func topDirectory(codes []seed.Code, w int) ([]int32, uint) {
	k := 0
	if len(codes) > topBucket {
		k = bits.Len(uint((len(codes) - 1) / topBucket)) // 2^k buckets ≥ len/topBucket
	}
	shift := uint(2*w - k)
	top := make([]int32, 1<<k+1)
	h := 0
	for i, c := range codes {
		for ; h <= int(c>>shift); h++ {
			top[h] = int32(i)
		}
	}
	for ; h < len(top); h++ {
		top[h] = int32(len(codes))
	}
	return top, shift
}

// FromParts reassembles an Index from its components, as if
// Build(b, opts) had produced it. It validates everything the engines
// rely on (see checkParts), so a corrupted or mismatched source cannot
// yield an Index whose hot loops read out of bounds or seed an
// extension anywhere but on a real seed window of b. What it cannot
// tell is whether occurrences are missing (dust and sampling decide
// that): ixdisk checksums the file and keys it by bank identity before
// reassembling.
func FromParts(b *bank.Bank, opts Options, p Parts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromParts: invalid W=%d", opts.W)
	}
	if err := checkParts(b, opts, p); err != nil {
		return nil, err
	}
	return assemble(b, opts, p), nil
}

// checkParts validates untrusted parts against bank b: array lengths
// consistent with Indexed, Codes strictly ascending inside [0, 4^W),
// Offsets strictly increasing from 0 to Indexed (every listed code has
// at least one occurrence), and every occurrence a real seed window —
// W valid bases of b.Data that encode to the code of its directory
// slot, positions strictly ascending inside the slot.
//
// The window check is what the engines' memory safety rests on. The
// extension loops (package hsp) take no bounds: they stop at the first
// sentinel. A position that passes is inside Data with a sentinel
// somewhere on both sides (Data begins and ends with one, and a window
// of valid bases contains none), and inside one record for the same
// reason — so no file that passes can make an extension read outside
// Data or report an HSP that spans a record boundary.
//
//scorislint:validator
func checkParts(b *bank.Bank, opts Options, p Parts) error {
	if len(p.Offsets) != len(p.Codes)+1 {
		return fmt.Errorf("index: FromParts: %d offsets for %d codes, want one more",
			len(p.Offsets), len(p.Codes))
	}
	if p.Offsets[0] != 0 {
		return fmt.Errorf("index: FromParts: Offsets[0]=%d, want 0", p.Offsets[0])
	}
	if len(p.Pos) != p.Indexed || int(p.Offsets[len(p.Codes)]) != p.Indexed {
		return fmt.Errorf("index: FromParts: Indexed=%d but len(Pos)=%d, Offsets[end]=%d",
			p.Indexed, len(p.Pos), p.Offsets[len(p.Codes)])
	}
	n := seed.NumCodes(opts.W)
	for i, c := range p.Codes {
		if int(c) >= n || (i > 0 && p.Codes[i-1] >= c) {
			return fmt.Errorf("index: FromParts: Codes[%d]=%d not strictly ascending inside the 4^%d code space", i, c, opts.W)
		}
		if p.Offsets[i+1] <= p.Offsets[i] {
			return fmt.Errorf("index: FromParts: Offsets not strictly increasing at entry %d", i)
		}
	}
	// Per-occurrence sweep, the validation cost of every disk load. It
	// reads Data at the positions' order — random — so memory latency is
	// most of it; slot ranges are swept concurrently like a build's.
	workers := buildWorkers(opts, len(b.Data))
	errs := make([]error, workers)
	runShards(workers, func(sid int) {
		lo, hi := sid*len(p.Codes)/workers, (sid+1)*len(p.Codes)/workers
		errs[sid] = checkWindows(b.Data, opts.W, p.Codes[lo:hi], p.Offsets[lo:hi+1], p.Pos)
	})
	return errors.Join(errs...)
}

// checkWindows is checkParts' sweep over a range of directory slots
// (offsets has one entry more than codes). A slot's code is spread once
// into the bytes its windows must hold — two words, since W ≤ 15 — and
// each occurrence is then a range test and two masked word compares. An
// ambiguous base or a sentinel differs from every base, so "valid"
// needs no test of its own.
func checkWindows(data []byte, w int, codes []seed.Code, offsets, positions []int32) error {
	maskLo, maskHi := ^uint64(0), uint64(0)
	if w < 8 {
		maskLo = 1<<(8*uint(w)) - 1
	} else {
		maskHi = 1<<(8*uint(w-8)) - 1
	}
	for i, c := range codes {
		wantLo, wantHi := spreadBases(uint64(c)), spreadBases(uint64(c)>>16)
		prev := int32(-1)
		for _, pos := range positions[offsets[i]:offsets[i+1]] {
			if pos <= prev || int(pos)+w > len(data) {
				return fmt.Errorf("index: FromParts: position %d under code %d is not an ascending W=%d window inside the bank", pos, c, w)
			}
			var lo, hi uint64
			if int(pos)+16 <= len(data) {
				lo, hi = binary.LittleEndian.Uint64(data[pos:]), binary.LittleEndian.Uint64(data[pos+8:])
			} else {
				var tail [16]byte
				copy(tail[:], data[pos:])
				lo, hi = binary.LittleEndian.Uint64(tail[:]), binary.LittleEndian.Uint64(tail[8:])
			}
			if (lo^wantLo)&maskLo|(hi^wantHi)&maskHi != 0 {
				return fmt.Errorf("index: FromParts: the W=%d window at position %d does not encode to code %d of its slot", w, pos, c)
			}
			prev = pos
		}
	}
	return nil
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

// Slot returns the directory slot of code c — Codes[slot] == c — and
// whether the bank contains c; when it does not, slot is where c would
// be inserted, as slices.BinarySearch(ix.Codes, c) reports it. The lookup
// reads two adjacent Top entries and binary-searches only the bucket
// between them, so it depends on no earlier lookup.
func (ix *Index) Slot(c seed.Code) (slot int, found bool) {
	lo, hi := ix.bucket(c)
	return ix.searchBucket(lo, hi, c)
}

// SlotBatch is the most codes one Slots call resolves.
const SlotBatch = 32

// Slots resolves up to SlotBatch codes at once: slots[i], for every i
// below len(codes), is the slot of codes[i], or -1 when the bank does
// not contain it. It is Slot taken a step at a time across the batch —
// every code's bucket, then the codes at both ends of every bucket, then
// the searches — so that the cache misses of the batch, one or two a
// code on a directory larger than the cache (a bucket is a cache line of
// codes, seldom aligned to one), are in flight together instead of one
// after the other (step 2's join, DESIGN.md §2).
func (ix *Index) Slots(codes []seed.Code, slots []int32) {
	var lo, hi [SlotBatch]int32
	for i, c := range codes {
		lo[i], hi[i] = ix.bucket(c)
	}
	var first, last [SlotBatch]seed.Code
	for i := range codes {
		first[i], last[i] = 1, 0 // an empty bucket holds no code
		if lo[i] < hi[i] {
			first[i], last[i] = ix.Codes[lo[i]], ix.Codes[hi[i]-1]
		}
	}
	for i, c := range codes {
		slots[i] = -1
		// Outside its bucket's codes c is settled already — and the test is
		// what the reads above are for: a load nothing uses is not compiled.
		if c < first[i] || last[i] < c {
			continue
		}
		if slot, found := ix.searchBucket(lo[i], hi[i], c); found {
			slots[i] = int32(slot)
		}
	}
}

// bucket returns the range of slots whose codes share c's top bits.
func (ix *Index) bucket(c seed.Code) (lo, hi int32) {
	h := int(c >> ix.topShift)
	if h >= len(ix.Top)-1 { // c ≥ 4^W: above every code
		end := int32(len(ix.Codes))
		return end, end
	}
	return ix.Top[h], ix.Top[h+1]
}

// searchBucket is a binary search for c among Codes[lo:hi], a bucket of c.
func (ix *Index) searchBucket(lo, hi int32, c seed.Code) (slot int, found bool) {
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if ix.Codes[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int(lo), int(lo) < len(ix.Codes) && ix.Codes[lo] == c
}

// Occ returns the occurrences of code c as a contiguous ascending slice
// view into the flat array, for callers that probe by code (the BLAT
// tile scan). It is empty when the bank does not contain c. Callers must
// not mutate it.
func (ix *Index) Occ(c seed.Code) []int32 {
	i, found := ix.Slot(c)
	if !found {
		return nil
	}
	return ix.Pos[ix.Offsets[i]:ix.Offsets[i+1]]
}

// MemoryBytes reports the footprint of the index arrays (Codes +
// Offsets + Top + Pos), the "INDEX" part of the paper's ≈5N bytes/bank
// estimate: 4 bytes per indexed position plus 8 and a fraction per
// distinct code (DESIGN.md §3).
func (ix *Index) MemoryBytes() int {
	return 4 * (len(ix.Codes) + len(ix.Offsets) + len(ix.Top) + len(ix.Pos))
}

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }
