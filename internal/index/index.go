// Package index implements the ORIS bank index of paper §2.1 / Fig. 2
// as a CSR (compressed sparse row) table built by counting sort: a
// prefix-sum array Starts of 4^W+1 entries plus one flat, cache-
// contiguous occurrence array Pos holding every indexed position,
// grouped by seed code and position-sorted inside each group. Occ(code)
// is a contiguous []int32 slice view, so step 2's sweep over the seed
// codes reads the occurrence lists sequentially — the paper's whole
// speed argument ("all the portions of sequence having the same seed
// are implicitly and simultaneously moved into the cache") realized as
// an actual memory layout instead of the linked Dict/Next chains the
// seed implementation pointer-chased (see DESIGN.md §2).
//
// Per-occurrence sidecar arrays (OccSeq, OccLo, OccHi) precompute the
// owning sequence and its Data bounds so the hot extension loops never
// call Bank.SeqAt/SeqBounds per hit pair.
//
// The build is two parallel passes over disjoint bank ranges: sharded
// count → serial prefix sum (which also turns the per-shard counts into
// scatter cursors) → sharded scatter. The output is canonical — byte-
// identical for any worker count — because shards cover ascending
// position ranges and the prefix sum orders each shard's cursor block
// after all lower shards' occurrences of the same code.
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
	"fmt"
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

	// Starts is the CSR prefix-sum array, length 4^W+1: the occurrences
	// of code c live in Pos[Starts[c]:Starts[c+1]], ascending.
	Starts []int32
	// Pos is the flat occurrence array, length Indexed.
	Pos []int32

	// Codes lists the occupied seed codes in ascending order — the
	// directory a step-2-style sweep iterates instead of scanning all
	// 4^W dictionary entries (most of which are empty at any realistic
	// bank size). Built for free during the prefix-sum pass.
	Codes []seed.Code

	// OccSeq[i], OccLo[i], OccHi[i] are the owning sequence of Pos[i]
	// and its half-open Data bounds, precomputed so hit loops skip the
	// per-position Bank lookups.
	OccSeq []int32
	OccLo  []int32
	OccHi  []int32

	// Indexed is the number of positions inserted.
	Indexed int
	// MaskedOut counts seed windows rejected by the dust filter.
	MaskedOut int
	// SampledOut counts windows skipped by SampleStep.
	SampledOut int

	opts Options
}

// minParallelData is the bank size below which the build stays serial;
// goroutine + shard bookkeeping costs more than it saves under ~64 KB.
const minParallelData = 1 << 16

// countBudgetBytes caps the transient per-shard count buffers
// (4·4^W bytes each), bounding build memory for large W.
const countBudgetBytes = 256 << 20

// buildWorkers picks the shard count for a build.
func buildWorkers(opts Options, dataLen, numCodes int) int {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if dataLen < minParallelData {
		return 1
	}
	if most := countBudgetBytes / (4 * numCodes); w > most {
		w = most
	}
	if w < 1 {
		w = 1
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

// shardTally carries one shard's pass-1 counters.
type shardTally struct {
	indexed, masked, sampled int
}

// Build constructs the index for a bank.
func Build(b *bank.Bank, opts Options) *Index {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		panic(fmt.Sprintf("index: invalid W=%d", opts.W))
	}
	n := seed.NumCodes(opts.W)
	ix := &Index{
		Bank:   b,
		W:      opts.W,
		Starts: make([]int32, n+1),
		opts:   opts,
	}

	// O(N) dust preprocessing: a prefix count of masked positions makes
	// the per-window test a single subtraction instead of a W-bit scan.
	var maskPfx []int32
	if opts.Dust != nil {
		maskPfx = opts.Dust.MaskPrefix(b.Data)
	}

	data := b.Data
	w := opts.W
	w32 := int32(w)
	step := int32(opts.SampleStep)
	phase := int32(opts.SamplePhase)

	workers := buildWorkers(opts, len(data), n)
	cuts := make([]int, workers+1)
	for i := range cuts {
		cuts[i] = i * len(data) / workers
	}

	// ---- pass 1: sharded count, buffering accepted (pos, code) pairs
	// so pass 2 scatters from sequential buffers instead of re-scanning
	// and re-encoding the bank. The serial path counts straight into
	// Starts[c+1] (the prefix pass below converts it in place), skipping
	// a whole 4·4^W-byte counts allocation ----
	counts := make([][]int32, workers)
	occBufs := make([][]uint64, workers)
	tallies := make([]shardTally, workers)
	runShards(workers, func(sid int) {
		lo, hi := cuts[sid], cuts[sid+1]
		hint := (hi - lo + int(step) - 1) / int(step)
		var cnt []int32
		if workers == 1 {
			cnt = ix.Starts[1:]
		} else {
			cnt = make([]int32, n)
		}
		// One packed pos<<32|code word per occurrence: a single
		// sequential append stream (pos needs 31 bits, code ≤ 30).
		occBuf := make([]uint64, 0, hint)
		t := &tallies[sid]
		scanRange(data, w, lo, hi, func(pos int32, c seed.Code) {
			if step > 1 && pos%step != phase {
				t.sampled++
				return
			}
			if maskPfx != nil && maskPfx[pos+w32] != maskPfx[pos] {
				t.masked++
				return
			}
			cnt[c]++
			t.indexed++
			occBuf = append(occBuf, uint64(pos)<<32|uint64(c))
		})
		counts[sid], occBufs[sid] = cnt, occBuf
	})
	for i := range tallies {
		ix.Indexed += tallies[i].indexed
		ix.MaskedOut += tallies[i].masked
		ix.SampledOut += tallies[i].sampled
	}

	// ---- prefix sum + pass 2: scatter positions ----
	ix.Pos = make([]int32, ix.Indexed)
	if hint := ix.Indexed; hint > n {
		ix.Codes = make([]seed.Code, 0, n)
	} else {
		ix.Codes = make([]seed.Code, 0, hint)
	}
	if workers == 1 {
		// Serial fast path: the classic in-place counting-sort trick.
		// Pass 1 counted into Starts[c+1]; here Starts[c+1] becomes the
		// cursor of code c, seeded at its exclusive prefix. Each
		// placement bumps it, so after the scatter Starts[c+1] has
		// landed on the inclusive end of group c — the final CSR array,
		// with no separate counts buffer or cursor pass at all.
		st := ix.Starts
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
		for _, v := range occBufs[0] {
			c := uint32(v)
			i := st[c+1]
			st[c+1] = i + 1
			ix.Pos[i] = int32(v >> 32)
		}
	} else {
		// Parallel path: the prefix sum turns the per-shard counts into
		// per-shard scatter cursors, ordering shard sid's block of code
		// c after all lower shards' blocks of the same code.
		var running int32
		for c := 0; c < n; c++ {
			ix.Starts[c] = running
			for sid := 0; sid < workers; sid++ {
				k := counts[sid][c]
				counts[sid][c] = running
				running += k
			}
			if running != ix.Starts[c] {
				ix.Codes = append(ix.Codes, seed.Code(c))
			}
		}
		ix.Starts[n] = running
		runShards(workers, func(sid int) {
			cur := counts[sid]
			for _, v := range occBufs[sid] {
				c := uint32(v)
				i := cur[c]
				cur[c] = i + 1
				ix.Pos[i] = int32(v >> 32)
			}
		})
	}

	// ---- pass 3: sidecar fill. A separate sweep so the writes are
	// sequential (the scatter above writes Pos at random cursor
	// positions; OccSeq/OccLo/OccHi here stream in index order) ----
	ix.OccSeq = make([]int32, ix.Indexed)
	ix.OccLo = make([]int32, ix.Indexed)
	ix.OccHi = make([]int32, ix.Indexed)
	occCuts := make([]int, workers+1)
	for i := range occCuts {
		occCuts[i] = i * ix.Indexed / workers
	}
	runShards(workers, func(sid int) {
		for i := occCuts[sid]; i < occCuts[sid+1]; i++ {
			s := b.SeqAt(ix.Pos[i])
			ix.OccSeq[i] = s
			ix.OccLo[i], ix.OccHi[i] = b.SeqBounds(int(s))
		}
	})
	return ix
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

// Parts holds the serialized components of a built Index — exactly the
// arrays and counters an on-disk store (package ixdisk) persists. The
// slices may alias read-only memory (an mmap'd file section): nothing
// in this package writes to a reassembled Index, per the immutability
// contract above.
type Parts struct {
	Starts, Pos          []int32
	Codes                []seed.Code
	OccSeq, OccLo, OccHi []int32
	Indexed              int
	MaskedOut            int
	SampledOut           int
}

// Parts returns the serializable components of ix. The slices are the
// index's own arrays, not copies; callers must treat them as read-only.
func (ix *Index) Parts() Parts {
	return Parts{
		Starts: ix.Starts, Pos: ix.Pos, Codes: ix.Codes,
		OccSeq: ix.OccSeq, OccLo: ix.OccLo, OccHi: ix.OccHi,
		Indexed: ix.Indexed, MaskedOut: ix.MaskedOut, SampledOut: ix.SampledOut,
	}
}

// FromParts reassembles an Index from serialized components, as if
// Build(b, opts) had produced it. It validates the structural
// invariants that every accessor depends on — array lengths consistent
// with W and Indexed, Starts a monotone prefix sum from 0 to Indexed,
// Codes exactly the occupied-code directory — so a corrupted or
// mismatched file cannot yield an Index whose hot loops read out of
// bounds. Content-level integrity (the right positions for this bank)
// is the storage layer's job: ixdisk checksums the file and keys it by
// bank identity before calling FromParts.
func FromParts(b *bank.Bank, opts Options, p Parts) (*Index, error) {
	opts = opts.normalized()
	if opts.W < 1 || opts.W > seed.MaxW {
		return nil, fmt.Errorf("index: FromParts: invalid W=%d", opts.W)
	}
	if err := checkParts(b, opts, p); err != nil {
		return nil, err
	}
	return &Index{
		Bank: b, W: opts.W,
		Starts: p.Starts, Pos: p.Pos, Codes: p.Codes,
		OccSeq: p.OccSeq, OccLo: p.OccLo, OccHi: p.OccHi,
		Indexed: p.Indexed, MaskedOut: p.MaskedOut, SampledOut: p.SampledOut,
		opts: opts,
	}, nil
}

// checkParts validates the structural invariants of serialized parts
// against bank b: array lengths consistent with W and Indexed, Starts a
// monotone prefix sum from 0 to Indexed, Codes exactly the occupied
// directory, and every occurrence inside the bounds of the sequence its
// sidecar entry names (with the sidecar bounds being that sequence's
// real bounds).
//
//scorislint:validator
func checkParts(b *bank.Bank, opts Options, p Parts) error {
	n := seed.NumCodes(opts.W)
	if len(p.Starts) != n+1 {
		return fmt.Errorf("index: FromParts: Starts has %d entries, want 4^%d+1=%d",
			len(p.Starts), opts.W, n+1)
	}
	if p.Starts[0] != 0 {
		return fmt.Errorf("index: FromParts: Starts[0]=%d, want 0", p.Starts[0])
	}
	if len(p.Pos) != p.Indexed || int(p.Starts[n]) != p.Indexed {
		return fmt.Errorf("index: FromParts: Indexed=%d but len(Pos)=%d, Starts[end]=%d",
			p.Indexed, len(p.Pos), p.Starts[n])
	}
	if len(p.OccSeq) != p.Indexed || len(p.OccLo) != p.Indexed || len(p.OccHi) != p.Indexed {
		return fmt.Errorf("index: FromParts: sidecar lengths %d/%d/%d, want Indexed=%d",
			len(p.OccSeq), len(p.OccLo), len(p.OccHi), p.Indexed)
	}
	occupied := 0
	for c := 0; c < n; c++ {
		if p.Starts[c+1] < p.Starts[c] {
			return fmt.Errorf("index: FromParts: Starts not monotone at code %d", c)
		}
		if p.Starts[c+1] > p.Starts[c] {
			if occupied >= len(p.Codes) || p.Codes[occupied] != seed.Code(c) {
				return fmt.Errorf("index: FromParts: Codes directory disagrees with Starts at code %d", c)
			}
			occupied++
		}
	}
	if occupied != len(p.Codes) {
		return fmt.Errorf("index: FromParts: Codes has %d entries beyond the %d occupied codes",
			len(p.Codes), occupied)
	}
	// Per-occurrence validation: every position must sit inside the
	// bounds of the sequence its sidecar entry names, and the sidecar
	// bounds must be that sequence's real bounds — so a hostile file
	// can never make the hot extension loops (which trust OccLo/OccHi
	// as scan limits) read outside the bank. The per-sequence bounds are
	// gathered up front and the parallel arrays re-sliced to a common
	// length so the O(Indexed) sweep runs without per-element method
	// calls or redundant bounds checks (this sweep is the validation
	// cost of every disk load).
	numSeqs := b.NumSeqs()
	lows := make([]int32, numSeqs)
	his := make([]int32, numSeqs)
	for s := 0; s < numSeqs; s++ {
		lows[s], his[s] = b.SeqBounds(s)
	}
	w32 := int32(opts.W)
	pos := p.Pos
	occSeq := p.OccSeq[:len(pos)]
	occLo := p.OccLo[:len(pos)]
	occHi := p.OccHi[:len(pos)]
	for i := range pos {
		s := occSeq[i]
		if s < 0 || int(s) >= numSeqs {
			return fmt.Errorf("index: FromParts: OccSeq[%d]=%d outside [0,%d)", i, s, numSeqs)
		}
		lo, hi := lows[s], his[s]
		if occLo[i] != lo || occHi[i] != hi {
			return fmt.Errorf("index: FromParts: sidecar bounds [%d,%d) for position %d disagree with sequence %d bounds [%d,%d)",
				occLo[i], occHi[i], pos[i], s, lo, hi)
		}
		if pos[i] < lo || pos[i]+w32 > hi {
			return fmt.Errorf("index: FromParts: position %d (W=%d) outside its sequence bounds [%d,%d)",
				pos[i], opts.W, lo, hi)
		}
	}
	return nil
}

// Occ returns the occurrences of code c as a contiguous ascending slice
// view into the flat array — the hot-loop accessor. Callers must not
// mutate it.
func (ix *Index) Occ(c seed.Code) []int32 {
	return ix.Pos[ix.Starts[c]:ix.Starts[c+1]]
}

// OccRange returns the half-open [start,end) range of c's occurrences
// inside Pos and the sidecar arrays, for loops that need OccSeq/OccLo/
// OccHi alongside the positions.
func (ix *Index) OccRange(c seed.Code) (start, end int32) {
	return ix.Starts[c], ix.Starts[c+1]
}

// Occurrences returns a copy of every position of code c (ascending).
// Intended for tests and diagnostics; hot paths use Occ.
func (ix *Index) Occurrences(c seed.Code) []int32 {
	return append([]int32(nil), ix.Occ(c)...)
}

// CountOccurrences returns the number of occurrences of c.
func (ix *Index) CountOccurrences(c seed.Code) int {
	return int(ix.Starts[c+1] - ix.Starts[c])
}

// NumCodes returns the dictionary size 4^W.
func (ix *Index) NumCodes() int { return len(ix.Starts) - 1 }

// MemoryBytes reports the footprint of the CSR arrays (Starts + Pos +
// sidecar), the "INDEX" part of the paper's ≈5N bytes/bank estimate;
// DESIGN.md §3 gives the exact math for this layout.
func (ix *Index) MemoryBytes() int {
	return 4 * (len(ix.Starts) + len(ix.Pos) + len(ix.Codes) +
		len(ix.OccSeq) + len(ix.OccLo) + len(ix.OccHi))
}

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }
