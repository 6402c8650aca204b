// Package index implements the ORIS bank index of paper §2.1 / Fig. 2
// as an inverted file sized by the bank: a directory of the seed codes
// the bank actually contains, ascending; Offsets, one entry per
// directory slot plus one; a lookup structure through which a code is
// found in one short probe (Slot) that waits for no other; and one
// flat, cache-contiguous occurrence array Pos holding every indexed
// position, grouped by seed code and position-sorted inside each
// group. The occurrences of the code in slot i are
// Pos[Offsets[i]:Offsets[i+1]], a contiguous []int32 view, so step 2's
// sweep over the seed codes reads the occurrence lists sequentially —
// the paper's whole speed argument ("all the portions of sequence
// having the same seed are implicitly and simultaneously moved into the
// cache") realized as an actual memory layout.
//
// That structure is a Part, and an Index is a list of them, one per
// block of sequences, in bank order: a built index is one part over the
// whole bank, and a loaded one is a part per stored block, adopted as
// it stands (blocks.go). Nothing merges them. Seed order alone makes
// every HSP unique (paper §4), so a join may be split any way, and
// step 2 joins every (bank-1 part, bank-2 part) pair; a code's
// occurrences in the whole index are its runs in the parts, in order.
//
// A directory's form depends on how full it is. A dense part — one
// whose sparse form would take at least the bitmap's bytes, from about
// 4^W/32 codes on — carries the paper's dense dictionary at 1 1/16 bits
// a code and nothing else: a presence bitmap Bits, which is the
// directory (the slot of a code is the number of set bits below it),
// and its rank Rank. A sparse part carries Codes, the directory as a
// sorted list, and Top, a coarse directory over Codes a sixteenth of
// its size. Nothing but the bitmap is sized by 4^W, and nothing at all
// is on a sparse part: a 16-read query bank costs kilobytes, not the
// 16 MB a dense dictionary of 4-byte entries would (see DESIGN.md §2).
//
// Positions are all the index stores per occurrence — the paper's one
// 4-byte INDEX entry per indexed position. The extension loops need no
// per-occurrence record bounds: every sequence in bank.Data is bracketed
// by sentinel bytes that never match, so an extension ends on the bank's
// own data (package hsp).
//
// The build is one pipeline for every bank size: sharded scans over
// ascending bank ranges write a packed code<<32|pos word per accepted
// window straight into the bucket of the code's top t bits, position
// order kept inside each, and then, on every worker, each bucket's
// words are finished in cache into Pos, Offsets and the directory (the
// bitmap of a dense one, or Codes) — by one counting pass on the code's
// low digit, or by a radix sort and a run-by-run emit. t follows the
// range's sampled positions, about 256 windows a bucket up to 2,048
// buckets, and is 0 — one bucket — below 2^18 of them. The output is
// canonical — byte-identical for any worker count — because the shards
// cover ascending position ranges, their histograms are laid out
// bucket-major and shard-minor, and each bucket's finish depends on its
// words alone.
//
// The index keeps the paper's two refinements:
//
//   - low-complexity filtering (§2.1): masked W-words are simply not
//     inserted; each scan shard walks its masked intervals with one
//     ascending cursor (dust.Windows), so the test costs a comparison a
//     window;
//   - asymmetric indexing (§3.4): with SampleStep=2 only every other
//     position of the bank is inserted, which with W=10 still catches
//     every 11-nt match while halving the index.
//
// # Reuse contract
//
// A built Index is immutable: Build is the only writer, nothing
// mutates its parts afterwards, and every accessor returns views or
// copies. A loaded one (FromBlocks) is too, but for each part's record
// of which slots' windows are proven — atomic bits, set as Prove proves
// them (check.go). Any number of goroutines may therefore read one Index
// concurrently without synchronization, and an Index may be held and
// reused for as long as its bank lives. The converse bound: an Index
// is valid only for the exact (bank, Options) pair it was built from —
// the bank whose Data it indexed and the exact W, sampling schedule,
// and dust on/off, its Key (Workers changes nothing: the build is
// canonical for any worker count). Callers that reuse indexes across
// comparisons should go through package ixcache, which keys cached
// builds by (bank, Key), and whose consumers (core.CompareWithIndex,
// blat.CompareWithIndex) check the Key before running.
package index

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/dust"
	"repro/internal/seed"
)

// Options configures index construction.
type Options struct {
	// W is the seed length in nucleotides (paper default 11).
	W int
	// Dust masks low-complexity W-words out of the index (the dust
	// package's one filter: window dust.Window, threshold dust.Threshold).
	Dust bool
	// SampleStep inserts only positions p with p % SampleStep == 0 (in
	// bank Data coordinates). 0 or 1 means every position.
	// SampleStep=2 is the paper's "half words" mode.
	SampleStep int
	// Workers bounds build parallelism; 0 means GOMAXPROCS. The built
	// index is identical for every worker count.
	Workers int
}

// normalized returns o in the canonical form Build uses and a built
// index's Options() reports: SampleStep < 1 becomes 1.
func (o Options) normalized() Options {
	if o.SampleStep < 1 {
		o.SampleStep = 1
	}
	return o
}

// Key is the identity of the index an Options value builds: W, the
// normalized sampling schedule and dust on/off, not Workers. Two option
// values build the same index of a bank exactly when their Keys are
// equal. The cache keys on it, the engines check a prepared index
// against it, and the on-disk store writes it.
type Key struct {
	W, SampleStep int
	Dust          bool
}

// Key returns the identity of the index o builds.
func (o Options) Key() Key {
	o = o.normalized()
	return Key{W: o.W, SampleStep: o.SampleStep, Dust: o.Dust}
}

// Index is a bank's index: the parts it is made of, in block order,
// and what they add up to. A built index is one part over the whole
// bank; a loaded or extended one is one part per stored block, each
// adopted as it stands (FromBlocks). The seed order alone keeps every
// HSP unique (paper §4), so step 2 needs no merged index: its hit pairs
// are the union of the joins of every (bank-1 part, bank-2 part) pair.
type Index struct {
	Bank *bank.Bank
	W    int

	// Indexed is the number of positions inserted.
	Indexed int
	// MaskedOut counts seed windows rejected by the dust filter.
	MaskedOut int
	// SampledOut counts windows skipped by SampleStep.
	SampledOut int

	opts Options
	// parts are the index's parts in ascending Data order, fixed at
	// assembly; each points back at the index.
	parts []Part
	// proof records whether a window proof has failed, on an index that
	// came from FromBlocks; nil on a built one (see Prove).
	proof *proof
}

// Part is one block of an index in memory: the CSR slice over the
// sequence range [SeqLo, SeqHi) — every indexed occurrence whose
// position falls in the range's Data, grouped by code — under a
// directory of its own, block-local Offsets and, on a loaded index, its
// proof bits. Its positions all precede those of the next part.
type Part struct {
	// SeqLo, SeqHi bound the sequence range; DataLo, DataHi the bank
	// Data range it spans (see BlockParts).
	SeqLo, SeqHi, DataLo, DataHi int

	// Codes lists the seed codes a sparse part holds, strictly ascending
	// — the directory step 2 joins with the other bank's: Codes[i] is the
	// code of slot i. nil on a dense part, whose directory is Bits
	// (Directory lists either).
	Codes []seed.Code
	// Offsets has NumCodes()+1 entries, strictly increasing from 0 to
	// len(Pos): the occurrences of the code of slot i are
	// Pos[Offsets[i]:Offsets[i+1]].
	Offsets []int32
	// Pos is the flat occurrence array, grouped by code and ascending
	// inside each group, in absolute bank coordinates.
	Pos []int32
	// Top is the coarse directory over Codes that Slot resolves a code
	// through on a sparse part: 2^k+1 entries, Top[h] the first slot
	// whose code's top k bits are ≥ h (Top[2^k] = len(Codes)), so the
	// codes sharing top bits h are Codes[Top[h]:Top[h+1]]. k is the
	// smallest that leaves a bucket ≤ topBucket codes when the part's
	// codes spread evenly. Under half a byte a code; nil on a dense part.
	Top []int32
	// Bits is the presence bitmap of a dense part (see Dense), and its
	// directory: bit c%64 of Bits[c/64] is set when the part holds code
	// c, for every c in [0, 4^W). The slot of a code is the number of set
	// bits below it. nil on a sparse part.
	Bits []uint64
	// Rank is Bits' rank directory: Rank[l] is the number of set bits in
	// the 512-bit lines before line l, Bits[:8l] — the slot of the line's
	// first code. nil on a sparse part.
	//
	// Top, Bits and Rank are derived by newPart wherever a part comes to
	// exist, never stored: Top from a sparse part's code list, Rank from a
	// bitmap already filled — by the build's emit, or by FromBlocks'
	// check.
	Rank []int32

	// MaskedOut and SampledOut are the part's shares of the index's
	// reject counters.
	MaskedOut, SampledOut int

	topShift uint   // a code's Top bucket is code >> topShift
	ix       *Index // the index the part belongs to: its bank, W and proof
	// done records the slots whose windows are proven, one bit a slot,
	// on a part of a loaded index; nil on a built one (see Prove).
	done []atomic.Uint64
}

// Parts returns the index's parts in block order: one for a built
// index, one per stored block for a loaded one. The slice is the
// index's own (read-only), so taking it allocates nothing.
func (ix *Index) Parts() []Part { return ix.parts }

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

// Build constructs the index for a bank: the one build routine run over
// the whole Data array.
func Build(b *bank.Bank, opts Options) *Index {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		panic(fmt.Sprintf("index: invalid W=%d", opts.W))
	}
	p, bitmap := buildRange(b, opts, 0, len(b.Data))
	p.SeqLo, p.SeqHi, p.DataLo, p.DataHi = 0, b.NumSeqs(), b.PrefixLen(0), len(b.Data)
	return assemble(b, opts, []Part{newPart(opts, &p, bitmap)})
}

// digitBits is the radix of the build's counting passes: 11-bit digits,
// so W=11 takes two digits of 2,048 counters.
const digitBits = 11

// The build's size rules, constants rather than options:
//
//   - oneBucket is the number of sampled positions of a range — a bound
//     on its windows, known before any scan — below which the range is
//     one bucket: its words fit in L2, where a sort costs no misses, and
//     one walk fills them, where a counting walk before it would cost a
//     base, not a window (11 bases a window on BLAT's sampled tile
//     index). From it on the build buckets the windows on
//     the code's top t bits, bucketWindows windows a bucket on average up
//     to 2^digitBits buckets: a bucket's counting pass clears and sums
//     2^digit counters whatever it holds, so a bucket must hold a few
//     hundred words to pay for them.
//   - smallBucket is the largest bucket finished by an insertion sort of
//     whole words instead of a counting pass, whose counters cost more
//     to clear and sum than the sort.
const (
	oneBucket     = 1 << 18
	bucketWindows = 256
	smallBucket   = 16
)

// topDigit is t, the width of the top digit on which the build over a
// Data range of n bytes buckets its windows: 0 below oneBucket sampled
// positions, else ⌈log2(s/bucketWindows)⌉ for s sampled positions,
// capped at digitBits and at the code's 2W bits.
func topDigit(opts Options, n int) int {
	s := (n + opts.SampleStep - 1) / opts.SampleStep
	if s < oneBucket {
		return 0
	}
	return min(digitBits, 2*opts.W, bits.Len(uint((s-1)/bucketWindows)))
}

// buildRange is the build over the windows starting in Data range
// [dataLo, dataHi), which must not cut a sequence (no window straddles a
// sentinel, so the range's content depends on nothing outside it). opts
// must be normalized. It returns the block, and the presence bitmap of
// a dense directory: the block's Codes is then nil (newPart takes the
// bitmap as the directory).
//
// A build is scan → per-bucket count → emit. The scans run in a frame
// of their own (scanBuckets), so their dust intervals are unreachable
// once they return; the bucketed words, 8 bytes a position, are the
// only large scratch, and stay live until the last bucket has been
// emitted. A bucket sorted for its finish is sorted in the count pass,
// in a scratch that pass's frame alone holds, so the sort's second
// buffer is dead while the emit runs. The emit loops make no calls, so
// a concurrent collection preempts them asynchronously and scans their
// frames conservatively: a stale slot pointing at dead scratch would
// keep it alive for that cycle and double the heap goal from there
// (DESIGN.md §2).
func buildRange(b *bank.Bank, opts Options, dataLo, dataHi int) (BlockParts, []uint64) {
	workers := buildWorkers(opts, dataHi-dataLo)
	words, bounds, p := scanBuckets(b.Data, opts, dataLo, dataHi, workers)
	return p, emitBuckets(&p, words, bounds, opts.W, workers)
}

// shardCuts splits Data range [dataLo, dataHi) into workers ascending
// shards. Under dust a cut moves forward to the next sentinel or
// ambiguous base, where every dust run ends: a shard masks its own
// range, and that agrees with a whole-bank pass.
func shardCuts(data []byte, opts Options, dataLo, dataHi, workers int) []int {
	cuts := make([]int, workers+1)
	cuts[0], cuts[workers] = dataLo, dataHi
	for i := 1; i < workers; i++ {
		c := max(dataLo+i*(dataHi-dataLo)/workers, cuts[i-1])
		for opts.Dust && c < dataHi && dna.IsValid(data[c]) {
			c++
		}
		cuts[i] = c
	}
	return cuts
}

// tally counts one shard's rejected windows: masked by dust, and
// skipped by sampling.
type tally struct{ masked, sampled int }

// walk visits the valid W-windows starting in Data positions [lo, hi),
// ascending. It reads up to W-1 bytes past hi, so a window straddling a
// shard cut is seen by exactly one shard, the one owning its start. It
// counts each accepted window — sampled, and not masked — in
// h[code>>shift]; with out non-nil it first writes the window's packed
// code<<32|pos word (pos needs 31 bits, code ≤ 30) to out[h[code>>shift]],
// so that h holds cursors and the walk scatters. masked is the shard's
// dust mask from lo, taken by value: each walk advances its own copy of
// the cursor. The sampling test is a countdown, not a division a window.
func walk(data []byte, opts Options, lo, hi int, masked dust.Windows, shift uint, h *[1 << digitBits]int32, out []uint64) tally {
	w, step := opts.W, opts.SampleStep
	end := min(hi+w-1, len(data))
	// ph is i's residue modulo step: the window ending at i starts on a
	// sampled position, a multiple of step, when ph is (w-1)%step.
	ph, sampled := lo%step, (w-1)%step
	var t tally
	var c seed.Code
	run := 0
	for i := lo; i < end; i, ph = i+1, ph+1 {
		if ph == step {
			ph = 0
		}
		b := data[i]
		if !dna.IsValid(b) {
			run = 0
			continue
		}
		c = seed.RollRight(c, b, w)
		if run++; run < w {
			continue
		}
		if ph != sampled {
			t.sampled++
			continue
		}
		pos := i - w + 1
		if masked.Masked(pos-lo, w) {
			t.masked++
			continue
		}
		d := c >> shift & (1<<digitBits - 1)
		if out != nil {
			out[h[d]] = uint64(c)<<32 | uint64(pos)
		}
		h[d]++
	}
	return t
}

// scanBuckets is the build's scan of each shard's windows into the
// range's 2^t buckets (t = topDigit), with the shard's dust intervals
// found once. With t > 0, scan 1 counts the accepted windows by the
// code's top digit in the shard's histogram; the histograms are then
// laid out bucket-major and shard-minor, and scan 2 walks the same
// windows again and writes each word straight into its bucket. With
// t = 0 the one bucket needs no count: each shard's one walk writes its
// words into a region of its own, sized for the shard's sampled
// positions so that a write can never spill into the next, and the
// regions are closed up in shard order. Either way a bucket's words
// keep position order. It returns the bucketed words, the buckets'
// bounds (bucket d is words[bounds[d]:bounds[d+1]]), and the block
// holding only the two reject counters.
func scanBuckets(data []byte, opts Options, dataLo, dataHi, workers int) ([]uint64, []int32, BlockParts) {
	cuts := shardCuts(data, opts, dataLo, dataHi, workers)
	t := topDigit(opts, dataHi-dataLo)
	shift := uint(2*opts.W - t)
	tallies := make([]tally, workers)
	bounds := make([]int32, 1<<t+1)
	var words []uint64
	if t == 0 {
		regions := make([]int, workers+1)
		for i := 1; i <= workers; i++ {
			regions[i] = regions[i-1] + (cuts[i]-cuts[i-1]+opts.SampleStep-1)/opts.SampleStep
		}
		words = make([]uint64, regions[workers])
		ends := make([]int, workers)
		runShards(workers, func(sid int) {
			lo, hi := cuts[sid], cuts[sid+1]
			// A shift of 2W leaves every code's digit 0, and h[0] is the
			// shard's cursor in its region.
			h := [1 << digitBits]int32{int32(regions[sid])}
			tallies[sid] = walk(data, opts, lo, hi, dust.Scan(data[lo:hi], opts.Dust), shift, &h, words)
			ends[sid] = int(h[0])
		})
		n := 0
		for sid := range workers {
			n += copy(words[n:], words[regions[sid]:ends[sid]])
		}
		words, bounds[1] = words[:n], int32(n)
	} else {
		masks := make([]dust.Windows, workers)
		hists := make([][1 << digitBits]int32, workers)
		runShards(workers, func(sid int) {
			lo, hi := cuts[sid], cuts[sid+1]
			masks[sid] = dust.Scan(data[lo:hi], opts.Dust)
			tallies[sid] = walk(data, opts, lo, hi, masks[sid], shift, &hists[sid], nil)
		})
		var sum int32
		for d := range 1 << t {
			bounds[d] = sum
			for k := range hists {
				hists[k][d], sum = sum, sum+hists[k][d]
			}
		}
		bounds[1<<t] = sum
		words = make([]uint64, sum)
		runShards(workers, func(sid int) {
			walk(data, opts, cuts[sid], cuts[sid+1], masks[sid], shift, &hists[sid], words)
		})
	}
	var p BlockParts
	for _, t := range tallies {
		p.MaskedOut += t.masked
		p.SampledOut += t.sampled
	}
	return words, bounds, p
}

// emitBuckets finishes a build without a global pass. Each bucket
// belongs to the worker whose share of the words its start falls in —
// the start of its group of buckets that share one word of a bitmap
// over the codes, so that no two workers write one word. A first pass
// over each bucket counts its codes, one prefix over the buckets gives
// each its first slot, and each bucket is then emitted in cache. A
// bucket takes one of two finishes. Where its codes' low part, below
// the top digit, is at most one digit wide and it holds more than
// smallBucket words, it is counted: the first pass marks its codes in a
// presence bitmap over the whole code space, allocated only when some
// bucket is counted, and the second is one counting pass on the low
// digit that writes its Offsets and scatters its positions straight
// into Pos. That bitmap is a dense directory's Bits as it stands, so a
// dense directory lists no codes. Every other bucket is sorted in the
// first pass — in a scratch of the worker's no larger than its largest
// such bucket, dead once the pass ends — its codes counted from the
// sorted runs, and emitted run by run. It fills p's Pos and Offsets,
// and its Codes when the directory is sparse; when it is dense it
// returns the bitmap instead.
func emitBuckets(p *BlockParts, words []uint64, bounds []int32, w, workers int) []uint64 {
	n := len(words)
	buckets := len(bounds) - 1
	lowBits := 2*w - bits.TrailingZeros(uint(buckets))
	group := max(1, 64>>lowBits)
	workers = min(workers, buckets)
	// Worker k finishes buckets [from[k], from[k+1]).
	from := make([]int, workers+1)
	for k, d := 1, 0; k < workers; k++ {
		for d < buckets && int(bounds[d]) < k*n/workers {
			d += group
		}
		from[k] = d
	}
	from[workers] = buckets
	var presence []uint64
	for d := 0; d < buckets && lowBits <= digitBits && presence == nil; d++ {
		if bounds[d+1]-bounds[d] > smallBucket {
			presence = make([]uint64, (seed.NumCodes(w)+63)/64)
		}
	}
	counted := func(bk []uint64) bool { return presence != nil && len(bk) > smallBucket }
	// slots[d] is bucket d's first slot; slots[buckets], the number of codes.
	slots := make([]int, buckets+1)
	runShards(workers, func(k int) {
		// Only without the bitmap does a sorted bucket outgrow smallBucket.
		size := 0
		for d := from[k]; d < from[k+1] && presence == nil; d++ {
			size = max(size, int(bounds[d+1]-bounds[d]))
		}
		tmp := make([]uint64, size)
		var h [1 << digitBits]int32
		for d := from[k]; d < from[k+1]; d++ {
			bk := words[bounds[d]:bounds[d+1]]
			if counted(bk) {
				slots[d+1] = mark(bk, presence)
				continue
			}
			lsdSort(bk, tmp, lowBits, &h)
			for i, v := range bk {
				if i == 0 || v>>32 != bk[i-1]>>32 {
					slots[d+1]++
				}
			}
		}
	})
	for d := range buckets {
		slots[d+1] += slots[d]
	}
	e := newEmit(n, slots[buckets])
	switch {
	case !denseDirectory(slots[buckets], w):
		e.codes = make([]seed.Code, slots[buckets])
	case presence != nil:
		e.bits = presence
	default:
		e.bits = make([]uint64, (seed.NumCodes(w)+63)/64)
	}
	runShards(workers, func(k int) {
		var h [1 << digitBits]int32
		for d := from[k]; d < from[k+1]; d++ {
			lo, hi := bounds[d], bounds[d+1]
			if bk := words[lo:hi]; counted(bk) {
				e.bucket(bk, lo, slots[d], seed.Code(d)<<lowBits, lowBits, presence, &h)
			} else {
				e.runs(bk, lo, slots[d])
			}
		}
	})
	p.Pos, p.Offsets, p.Codes = e.pos, e.offsets, e.codes
	return e.bits
}

// mark sets the bit of each word's code in the presence bitmap, and
// returns how many it found clear: the number of distinct codes among
// words whose codes presence did not hold.
func mark(words []uint64, presence []uint64) int {
	m := 0
	for _, v := range words {
		c := seed.Code(v >> 32)
		x := presence[c/64]
		m += int(^x >> (c % 64) & 1)
		presence[c/64] = x | 1<<(c%64)
	}
	return m
}

// emit is where the build's last pass writes a block: its Pos and
// Offsets, and its directory — Codes, or on a dense directory its
// presence bitmap (one of the two is nil).
type emit struct {
	pos, offsets []int32
	codes        []seed.Code
	bits         []uint64
}

// newEmit makes the Pos and Offsets of a block of n positions and m
// codes; the caller adds the directory.
func newEmit(n, m int) emit {
	e := emit{pos: make([]int32, n), offsets: make([]int32, m+1)}
	e.offsets[m] = int32(n)
	return e
}

// slot records code c in slot s, its occurrences starting at Pos index
// off.
func (e *emit) slot(s int, c seed.Code, off int32) {
	e.offsets[s] = off
	if e.bits != nil {
		e.bits[c/64] |= 1 << (c % 64)
		return
	}
	e.codes[s] = c
}

// runs emits a bucket's words in CSR order, its first word being Pos
// index start: each word's position, and a slot, from slot on, for each
// code that begins a run.
func (e *emit) runs(words []uint64, start int32, slot int) {
	for i, v := range words {
		if i == 0 || v>>32 != words[i-1]>>32 {
			e.slot(slot, seed.Code(v>>32), start+int32(i))
			slot++
		}
		e.pos[start+int32(i)] = int32(uint32(v))
	}
}

// bucket emits the words of one bucket whose codes share top bits top
// and differ in their low lowBits ≤ digitBits, the bucket's first
// position being Pos index start and its first code's slot slot, with
// presence holding the bucket's codes: one counting pass on the low
// digit, whose prefix sums at the codes present are the bucket's
// Offsets, then a stable scatter of the positions into Pos.
func (e *emit) bucket(words []uint64, start int32, slot int, top seed.Code, lowBits int, presence []uint64, h *[1 << digitBits]int32) {
	c := h[:1<<lowBits]
	mask := uint64(len(c) - 1)
	clear(c)
	for _, v := range words {
		c[v>>32&mask]++
	}
	off := start
	for i, k := range c {
		c[i] = off
		off += k
	}
	for base := 0; base < len(c); base += 64 {
		// The bucket's bits of a presence word: all 64 when the bucket
		// spans whole words, else its len(c) from first%64.
		first := top + seed.Code(base)
		for x := presence[first/64] >> (first % 64) & (1<<min(len(c), 64) - 1); x != 0; x &= x - 1 {
			i := base + bits.TrailingZeros64(x)
			e.offsets[slot] = c[i]
			if e.codes != nil {
				e.codes[slot] = top + seed.Code(i)
			}
			slot++
		}
	}
	for _, v := range words {
		k := v >> 32 & mask
		e.pos[c[k]] = int32(uint32(v))
		c[k]++
	}
}

// lsdSort stably sorts words in place by the low codeBits bits of
// their code with one counting pass per digitBits-wide digit,
// ping-ponging between words and tmp (at least as long) with h as the
// counters. At most smallBucket words are insertion-sorted instead, by
// whole word, and tmp is not touched: the position in the low half is
// unique, so that order is the stable one (bits of the code above
// codeBits must then be equal across words, as in a bucket).
func lsdSort(words, tmp []uint64, codeBits int, h *[1 << digitBits]int32) {
	if len(words) <= smallBucket {
		for i := 1; i < len(words); i++ {
			v, j := words[i], i
			for ; j > 0 && words[j-1] > v; j-- {
				words[j] = words[j-1]
			}
			words[j] = v
		}
		return
	}
	src, dst := words, tmp[:len(words)]
	for shift := 32; shift < 32+codeBits; shift += digitBits {
		c := h[:1<<min(digitBits, 32+codeBits-shift)]
		mask := uint64(len(c) - 1)
		clear(c)
		for _, v := range src {
			c[v>>shift&mask]++
		}
		var sum int32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, v := range src {
			k := v >> shift & mask
			dst[c[k]] = v
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &words[0] {
		copy(words, src)
	}
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

// assemble binds parts, in block order, to the (bank, options) they
// were built or validated for, and sums the bank's counters over them.
// opts must be normalized.
func assemble(b *bank.Bank, opts Options, parts []Part) *Index {
	ix := &Index{Bank: b, W: opts.W, opts: opts, parts: parts}
	for i := range parts {
		q := &parts[i]
		q.ix = ix
		ix.Indexed += len(q.Pos)
		ix.MaskedOut += q.MaskedOut
		ix.SampledOut += q.SampledOut
	}
	return ix
}

// newPart takes block p as a part, under the directory's form its size
// calls for: a non-nil bitmap is a dense directory's presence bitmap
// already filled — by the build's emit, or by FromBlocks' check — and
// only its rank is derived; p's code list is then not kept. A nil
// bitmap leaves the part sparse, and Top is derived beside the list.
func newPart(opts Options, p *BlockParts, bitmap []uint64) Part {
	q := Part{
		SeqLo: p.SeqLo, SeqHi: p.SeqHi, DataLo: p.DataLo, DataHi: p.DataHi,
		Offsets: p.Offsets, Pos: p.Pos,
		MaskedOut: p.MaskedOut, SampledOut: p.SampledOut,
	}
	if bitmap != nil {
		q.Bits, q.Rank = bitmap, rankOf(bitmap)
	} else {
		q.Codes = p.Codes
		q.Top, q.topShift = topDirectory(p.Codes, opts.W)
	}
	return q
}

// denseDirectory reports whether a directory of n codes below 4^w is
// held as a presence bitmap and its rank instead of Codes and Top: when
// its sparse form — 4n bytes of Codes and 4·(2^topBits(n)+1) of Top —
// takes at least the bitmap's 4^w/8 bytes and the rank's 4^w/128, from
// about 4^w/32 codes on (131,071 at W = 11). Either way an index holds
// the smaller of its two forms. The memory crossover, a constant — not
// an option.
func denseDirectory(n, w int) bool {
	words := (seed.NumCodes(w) + 63) / 64
	bitmap := 8*words + 4*((words+lineWords-1)/lineWords)
	return 4*n+4*(1<<topBits(n)+1) >= bitmap
}

// lineWords is the number of bitmap words a Rank entry covers: one
// 512-bit cache line, so a rank is one entry and at most eight
// popcounts on one line.
const lineWords = 8

// rankOf derives a bitmap's rank directory (see Part.Rank).
func rankOf(bitmap []uint64) []int32 {
	rank := make([]int32, (len(bitmap)+lineWords-1)/lineWords)
	n := 0
	for i, x := range bitmap {
		if i%lineWords == 0 {
			rank[i/lineWords] = int32(n)
		}
		n += bits.OnesCount64(x)
	}
	return rank
}

// topBucket is the number of codes a Top bucket holds when the
// directory's codes spread evenly over the code space: one cache line of
// Codes, four probes of a binary search.
const topBucket = 16

// topBits is the k of a Top over n codes: the smallest with 2^k
// buckets ≥ n/topBucket.
func topBits(n int) int {
	if n <= topBucket {
		return 0
	}
	return bits.Len(uint((n - 1) / topBucket))
}

// topDirectory derives the coarse directory of an ascending code list
// below 4^w (see Part.Top) in one pass, and the shift that takes a code
// to its bucket.
func topDirectory(codes []seed.Code, w int) ([]int32, uint) {
	k := topBits(len(codes))
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

// Dense reports whether q carries the presence bitmap (Bits, Rank)
// rather than Codes and Top: whether its sparse form would take at
// least the bitmap's bytes (denseDirectory). Each part of an index takes
// the form its own size calls for: an appended tail is sparse beside a
// dense head.
func (q *Part) Dense() bool { return q.Bits != nil }

// NumCodes returns the number of seed codes the part holds: the
// directory's slots, on a dense part and a sparse one alike.
func (q *Part) NumCodes() int { return len(q.Offsets) - 1 }

// Directory lists the seed codes the part holds, strictly ascending:
// slot i holds the i-th. On a sparse part it is Codes itself (callers
// must not mutate it); on a dense one it is regenerated from Bits, one
// pass over its set bits, into a new slice nothing else keeps — for the
// writers and readers that want the list, not for the join.
func (q *Part) Directory() []seed.Code {
	if q.Bits == nil {
		return q.Codes
	}
	return listOf(q.Bits, q.NumCodes())
}

// listOf lists the n codes a presence bitmap holds, ascending, in a new
// slice.
func listOf(bitmap []uint64, n int) []seed.Code {
	codes := make([]seed.Code, 0, n)
	for w, x := range bitmap {
		for ; x != 0; x &= x - 1 {
			codes = append(codes, seed.Code(64*w+bits.TrailingZeros64(x)))
		}
	}
	return codes
}

// WordRank returns the number of codes below 64·w on a dense part —
// the slot of the first code at or after 64·w: one Rank entry and the
// popcounts of the words before w on its line.
func (q *Part) WordRank(w int) int {
	l := w / lineWords
	n := int(q.Rank[l])
	for _, x := range q.Bits[l*lineWords : w] {
		n += bits.OnesCount64(x)
	}
	return n
}

// Slot returns the directory slot of code c — Directory()[slot] == c —
// and whether the part holds c; when it does not, slot is where c
// would be inserted, as slices.BinarySearch(q.Directory(), c) reports
// it. On a dense part the lookup is c's bitmap word and its rank
// (WordRank); on a sparse one it reads two adjacent Top entries and
// binary-searches only the bucket between them. Either way it depends
// on no earlier lookup.
func (q *Part) Slot(c seed.Code) (slot int, found bool) {
	if q.Bits != nil {
		w := int(c / 64)
		if w >= len(q.Bits) { // c ≥ 4^W: above every code
			return q.NumCodes(), false
		}
		x := q.Bits[w]
		return q.WordRank(w) + bits.OnesCount64(x&(1<<(c%64)-1)), x>>(c%64)&1 != 0
	}
	lo, hi := q.bucket(c)
	return q.searchBucket(lo, hi, c)
}

// SlotBatch is the most codes one Slots call resolves.
const SlotBatch = 32

// Slots resolves up to SlotBatch codes at once: slots[i], for every i
// below len(codes), is the slot of codes[i], or -1 when the part does
// not hold it. It is Slot taken a step at a time across the batch —
// every code's bucket, then the codes at both ends of every bucket, then
// the searches — so that the cache misses of the batch, one or two a
// code on a directory larger than the cache (a bucket is a cache line of
// codes, seldom aligned to one), are in flight together instead of one
// after the other (step 2's join, DESIGN.md §2). On a dense part a
// lookup is one line of Bits, which needs no batching: Slot per code.
func (q *Part) Slots(codes []seed.Code, slots []int32) {
	if q.Bits != nil {
		for i, c := range codes {
			slots[i] = -1
			if slot, found := q.Slot(c); found {
				slots[i] = int32(slot)
			}
		}
		return
	}
	var lo, hi [SlotBatch]int32
	for i, c := range codes {
		lo[i], hi[i] = q.bucket(c)
	}
	var first, last [SlotBatch]seed.Code
	for i := range codes {
		first[i], last[i] = 1, 0 // an empty bucket holds no code
		if lo[i] < hi[i] {
			first[i], last[i] = q.Codes[lo[i]], q.Codes[hi[i]-1]
		}
	}
	for i, c := range codes {
		slots[i] = -1
		// Outside its bucket's codes c is settled already — and the test is
		// what the reads above are for: a load nothing uses is not compiled.
		if c < first[i] || last[i] < c {
			continue
		}
		if slot, found := q.searchBucket(lo[i], hi[i], c); found {
			slots[i] = int32(slot)
		}
	}
}

// bucket returns the range of slots whose codes share c's top bits, on
// a sparse part.
func (q *Part) bucket(c seed.Code) (lo, hi int32) {
	h := int(c >> q.topShift)
	if h >= len(q.Top)-1 { // c ≥ 4^W: above every code
		end := int32(len(q.Codes))
		return end, end
	}
	return q.Top[h], q.Top[h+1]
}

// searchBucket is a binary search for c among Codes[lo:hi], a bucket of c.
func (q *Part) searchBucket(lo, hi int32, c seed.Code) (slot int, found bool) {
	for lo < hi {
		m := int32(uint32(lo+hi) >> 1)
		if q.Codes[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int(lo), int(lo) < len(q.Codes) && q.Codes[lo] == c
}

// Occ returns the part's occurrences of code c as a contiguous
// ascending slice view into its flat array. It is empty when the part
// does not hold c. Callers must not mutate it. It proves nothing: an engine about to
// extend from the occurrences reads them through ProvenOcc.
func (q *Part) Occ(c seed.Code) []int32 {
	i, found := q.Slot(c)
	if !found {
		return nil
	}
	return q.Pos[q.Offsets[i]:q.Offsets[i+1]]
}

// MemoryBytes reports the footprint of the arrays the index holds, a
// sum over its parts (Offsets + Pos, and Codes + Top or Bits + Rank),
// the "INDEX" part of the paper's ≈5N bytes/bank estimate: 4 bytes per
// indexed position plus 4 per distinct code of a part, plus on a sparse
// part 4 more and under half a byte a code (Codes and Top), on a dense
// one 4^W/8 + 4^W/128 bytes (Bits and Rank) — whichever is smaller
// (DESIGN.md §3). A loaded index adds its proof bits, one a slot.
func (ix *Index) MemoryBytes() int {
	n := 0
	for i := range ix.parts {
		q := &ix.parts[i]
		n += 4*(len(q.Codes)+len(q.Offsets)+len(q.Top)+len(q.Rank)+len(q.Pos)) + 8*len(q.Bits) + 8*len(q.done)
	}
	return n
}

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }
