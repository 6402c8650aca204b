// Package core implements the ORIS (ORdered Index Seed) pipeline — the
// primary contribution of Lavenier, "Ordered Index Seed Algorithm for
// Intensive DNA Sequence Comparison" (HiCOMB 2008). The four steps of
// paper Fig. 1:
//
//	step 1  index both banks (package index)
//	step 2  enumerate the seeds from the lowest code to the highest and
//	        run ordered ungapped extensions (package hsp) — each HSP is
//	        produced exactly once, no duplicate table needed. The paper
//	        sweeps all 4^W codes of a dense dictionary; here the indexes
//	        are sorted directories of the codes each bank holds, and the
//	        enumeration is their join: when both banks are large it is
//	        the paper's sweep, an AND of the two indexes' presence
//	        bitmaps word by word; otherwise it is driven by the smaller
//	        directory and resolved in the other by point lookups (a
//	        16-read query walks its few thousand codes, not 4^W), taken
//	        a batch at a time so that the cache misses of a batch
//	        overlap. Either way, the same codes in the same order
//	step 3  gapped X-drop extension from the middle of each HSP, walking
//	        HSPs in diagonal order and skipping those already inside an
//	        alignment (packages align, gapped)
//	step 4  E-value annotation, dedup, sort, display (packages align,
//	        stats, tabular)
//
// Step 2 parallelizes over disjoint seed-code ranges — contiguous chunks
// of the code space or of the driving directory — exactly as §4 of the
// paper anticipates
// ("the outer loop … can be run in parallel since seed order prevents
// identical HSPs to be generated"); workers share nothing but an atomic
// chunk counter. Steps 3–4 are align.Run, the code the other two
// engines run: one walk over a bank-2 sequence's HSPs at a time.
//
// # Index reuse
//
// Compare rebuilds both bank indexes on every call. For workloads that
// compare one bank against many others, prepare the indexes once and
// call CompareWithIndex instead: Options.IndexOptions reports the exact
// index.Options each side needs, Prepare builds (or fetches from an
// ixcache.Cache) the matching pair of indexes, and CompareWithIndex runs
// steps 2–4 against them and the banks they hold. The reuse contract
// (package ixcache): a built index.Index is immutable and safe for any
// number of concurrent readers, but valid only for the exact
// (bank, index.Key) it was built from — CompareWithIndex checks the Key
// and rejects mismatched indexes rather than produce output for seeds
// that don't exist.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
)

// Strand selects which strands of bank 2 are searched.
type Strand int

const (
	// PlusOnly searches the given orientation only — the mode of the
	// paper's prototype (blastall -S 1 in §3.3).
	PlusOnly Strand = iota
	// BothStrands additionally searches the reverse complement of
	// bank 2, the feature the paper defers to "a new release".
	BothStrands
)

// Options configures a comparison. The zero value is not valid; use
// DefaultOptions as a base.
type Options struct {
	// Params are the seed length, scoring, X-drops, thresholds and dust
	// switch the three engines share.
	align.Params
	// Asymmetric enables §3.4's 10-nt half-word indexing: bank 1 is
	// indexed at every other position only. W should be 10.
	Asymmetric bool
	// Strand selects single- or double-strand search.
	Strand Strand
	// Workers bounds the parallelism of step 2's chunks and of the index
	// build; 0 means GOMAXPROCS.
	Workers int
	// OrderedRule can be disabled for the A1 ablation; the pipeline
	// then deduplicates HSPs explicitly, which is what the ordered rule
	// exists to avoid. A paper ablation kept on purpose: its only
	// callers are the experiments tables and the tests that pin the §2
	// claim.
	OrderedRule bool
	// ShuffledSeedOrder enumerates the outer step-2 loop — the slots of
	// the driving code directory — in a fixed pseudo-random permutation
	// instead of ascending code order (the A4 ablation). The HSP *set* is
	// unchanged — the abort rule is
	// anchor-local — but the cache locality the paper credits for its
	// speed ("all the portions of sequence having the same seed are
	// implicitly and simultaneously moved into the cache") is destroyed.
	// A paper ablation kept on purpose, like OrderedRule.
	ShuffledSeedOrder bool
	// SkipSelfPairs restricts step 2 to hit pairs with p1 < p2, for
	// comparing a bank against ITSELF (full-genome self-comparison, a
	// §4 perspective): the trivial identity alignment of every position
	// with itself and the mirror copy of each alignment are suppressed.
	// The ordered-rule uniqueness proof survives the restriction
	// because run-embedded candidate seeds lie on the same diagonal and
	// therefore satisfy p1 < p2 exactly when the anchor does. Only
	// meaningful when both banks are the same Bank value.
	SkipSelfPairs bool
}

// DefaultOptions returns the paper-plausible configuration: W=11,
// +1/−3 scoring with 5/2 gaps, E ≤ 1e-3, ordered rule on, single
// strand, dust filter on.
func DefaultOptions() Options {
	return Options{Params: align.DefaultParams(), Strand: PlusOnly, OrderedRule: true}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if o.SkipSelfPairs && o.Strand == BothStrands {
		// The p1<p2 triangle restriction is defined on one shared
		// coordinate space; the reverse-complement pass compares
		// against a different bank, where it would drop arbitrary hits.
		return fmt.Errorf("core: SkipSelfPairs requires PlusOnly strand")
	}
	return nil
}

// Metrics reports per-step timings and counters for the experiment
// harness and the ablations.
type Metrics struct {
	IndexTime time.Duration
	Step2Time time.Duration
	// Stats are the step 3–4 clocks and counters.
	align.Stats

	// HitPairs is Σ X1·X2 over all seeds (paper §2.2).
	HitPairs int64
	// Extensions, Aborted, Emitted summarize step 2.
	Extensions int64
	Aborted    int64
	// HSPs is the number of HSPs above MinUngappedScore.
	HSPs int
	// DuplicateHSPs counts duplicates removed when OrderedRule is off.
	DuplicateHSPs int
	IndexedBank1  int
	IndexedBank2  int
	MaskedSeeds   int
	// WindowsProven counts the stored windows step 2 proved before
	// extending from them (index.Part.Prove): the windows of the slots
	// this compare was first to read in a loaded index. 0 on built
	// indexes.
	WindowsProven int64
}

// Result bundles the alignments with run metrics.
type Result = align.Result[Metrics]

// IndexOptions reports the exact index.Options Compare derives from o
// for bank 1 and bank 2 — the options a prepared index must have been
// built with to be valid for CompareWithIndex under o.
func (o Options) IndexOptions() (o1, o2 index.Options) {
	o1 = index.Options{W: o.W, Dust: o.Dust, Workers: o.Workers}
	if o.Asymmetric {
		o1.SampleStep = 2
	}
	o2 = index.Options{W: o.W, Dust: o.Dust, Workers: o.Workers}
	return o1, o2
}

// Prepare builds (or fetches) the indexes Compare would build for
// (b1, b2) under opt. With a non-nil cache the builds are shared across
// calls keyed by (bank, index.Key); with a nil cache the indexes are
// built directly. When b1 == b2 and the two sides need identical
// options (no Asymmetric), one index serves both.
func Prepare(c *ixcache.Cache, b1, b2 *bank.Bank, opt Options) (ix1, ix2 *index.Index, err error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	o1, o2 := opt.IndexOptions()
	if c != nil {
		return c.Get(b1, o1), c.Get(b2, o2), nil
	}
	ix1 = index.Build(b1, o1)
	if b1 == b2 && !opt.Asymmetric {
		return ix1, ix1, nil
	}
	return ix1, index.Build(b2, o2), nil
}

// Compare runs the full ORIS pipeline on two banks, building both
// indexes in place, and returns the whole alignment table. Callers
// comparing a bank against many others should Prepare once and call
// CompareWithIndex so the builds amortize.
func Compare(b1, b2 *bank.Bank, opt Options) (*Result, error) {
	return align.Collect(func(emit align.Emit) (*Result, error) {
		return CompareStream(context.Background(), b1, b2, opt, emit)
	})
}

// CompareWithIndex runs the pipeline on prepared indexes and the banks
// they hold, skipping the index builds entirely (Metrics.IndexTime
// covers only work done here, e.g. the reverse-complement index of a
// BothStrands run). Both indexes must have been built with the index
// options opt derives, or an error is returned (see the package
// comment's reuse contract).
func CompareWithIndex(ix1, ix2 *index.Index, opt Options) (*Result, error) {
	return align.Collect(func(emit align.Emit) (*Result, error) {
		return CompareStreamWithIndex(context.Background(), ix1, ix2, opt, emit)
	})
}

// step2Result carries a worker's private output.
type step2Result struct {
	hsps     []hsp.HSP
	hitPairs int64
	stats    hsp.Stats
	// touched sums the bank bytes step2 reads ahead of a batch's
	// extensions: a use, so that the compiler keeps the loads.
	touched byte
	// proven counts the windows the worker proved; err is its failed
	// proof, if any.
	proven int64
	err    error
}

func workerCount(opt Options) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// step2 enumerates the seed codes both banks contain, in ascending
// order, as a join of the two indexes' sorted directories, and runs the
// X1×X2 ordered extensions of each. The ordered rule makes every HSP
// globally unique, so workers need no coordination (paper §4) — and
// neither do the parts of an index: an index is one part per stored
// block (index.Part), and the join runs on every (bank-1 part, bank-2
// part) pair, whose hit pairs together are the whole product. A built
// index is one part, a loaded one never merged.
//
// The join of a pair (joinCodes) has two walks. When both parts are
// dense it ANDs their presence bitmaps, which are their directories,
// word by word, workers claiming contiguous word ranges through an
// atomic counter. Otherwise it is driven by the smaller directory,
// always a sparse part's code list — a 16-read query against a megabase
// bank walks the query's few thousand codes, not the bank's million:
// workers claim contiguous chunks of it and resolve its codes in the
// larger directory by point lookups (index.Part.Slots). Per-worker
// order stays ascending inside a pair, which is all the ordered-rule
// uniqueness proof needs. The A4 ablation (ShuffledSeedOrder) visits
// the words, or the driving directory's slots, in a fixed pseudo-random
// permutation instead.
//
// A shared code is a chain of loads, each address read from the last:
// the directory lookup, then Offsets[k] → Pos[off] → Data[p] on both
// sides. Taken one code at a time on a lopsided pair every link is a
// cache miss the next must wait for, and that — not the extension — is
// most of step 2 there. So the join looks its codes up a batch at a time
// and hands over its matches joinBatch at a time, and before extending a
// batch step2 walks it three times, once per link: the loads of one pass
// do not depend on each other, so the core has a batch's misses in flight
// together. The extension loops then run over the batch in slot order,
// exactly as if the passes were not there (DESIGN.md §2).
//
// A loaded index proves a slot's windows the first time a batch reads
// it (index.Part.Prove), after the head pass and before any extension
// of the batch: a failed proof stops every worker and fails the compare
// before step 3 writes a row (DESIGN.md §7).
//
//scorislint:hotpath
func step2(ctx context.Context, b1, b2 *bank.Bank, ix1, ix2 *index.Index, opt Options) ([]hsp.HSP, step2Result, error) {
	workers := workerCount(opt)
	results := make([]step2Result, workers)
	prove := ix1.Loaded() || ix2.Loaded()
	cancel := context.CancelFunc(func() {})
	if prove {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	ext := opt.Ungapped(opt.OrderedRule)
	// The abort rule must only fire on seeds the bank-1 index holds.
	ext.SampleStep = int32(ix1.Options().SampleStep)
	d1, d2 := b1.Data, b2.Data

	err := joinCodes(ctx, ix1, ix2, workers, opt.ShuffledSeedOrder, func(wid int, q1, q2 *index.Part, batch []slotPair) {
		r := &results[wid]
		// Both occurrence lists of every pair: [lo, hi) into Pos.
		var lo1, hi1, lo2, hi2 [joinBatch]int32
		for i, sp := range batch {
			lo1[i], hi1[i] = q1.Offsets[sp.k1], q1.Offsets[sp.k1+1]
			lo2[i], hi2[i] = q2.Offsets[sp.k2], q2.Offsets[sp.k2+1]
		}
		// The head of each list — a listed code has at least one occurrence,
		// inside the bank (index.FromBlocks proves both on load) — and the
		// bank byte under it.
		var p1, p2 [joinBatch]int32
		for i := range batch {
			p1[i], p2[i] = q1.Pos[lo1[i]], q2.Pos[lo2[i]]
		}
		for i := range batch {
			r.touched += d1[p1[i]] + d2[p2[i]]
		}
		if prove {
			for _, sp := range batch {
				n1, err1 := q1.Prove(sp.k1, sp.code)
				n2, err2 := q2.Prove(sp.k2, sp.code)
				if err1 != nil || err2 != nil {
					r.err = cmp.Or(err1, err2)
					cancel()
					return
				}
				r.proven += int64(n1 + n2)
			}
		}

		// The X1×X2 inner product of each shared code. Both occurrence lists
		// are contiguous CSR slice views: flat sequential reads, no pointer
		// chasing and no per-hit Bank lookups (an extension ends on the
		// banks' own sentinels). Bank-1 positions stay outermost whichever
		// directory drives the join.
		for i, sp := range batch {
			code := sp.code
			pos2 := q2.Pos[lo2[i]:hi2[i]]
			for _, p1 := range q1.Pos[lo1[i]:hi1[i]] {
				for _, p2 := range pos2 {
					if opt.SkipSelfPairs && p2 <= p1 {
						continue
					}
					r.hitPairs++
					h, ok := ext.Extend(d1, d2, p1, p2, code, &r.stats)
					if ok && h.Score >= opt.MinUngappedScore {
						r.hsps = append(r.hsps, h)
					}
				}
			}
		}
	})
	for i := range results {
		if results[i].err != nil {
			return nil, step2Result{}, results[i].err
		}
	}
	if err != nil {
		return nil, step2Result{}, err
	}

	var merged step2Result
	total := 0
	for i := range results {
		total += len(results[i].hsps)
	}
	merged.hsps = make([]hsp.HSP, 0, total)
	for i := range results {
		merged.hsps = append(merged.hsps, results[i].hsps...)
		merged.hitPairs += results[i].hitPairs
		merged.proven += results[i].proven
		merged.stats.Extensions += results[i].stats.Extensions
		merged.stats.Aborted += results[i].stats.Aborted
		merged.stats.Emitted += results[i].stats.Emitted
	}
	return merged.hsps, merged, nil
}

// slotPair is one code both parts' directories hold and its slot in
// each.
type slotPair struct {
	k1, k2 int32
	code   seed.Code
}

// joinBatch is the number of slot pairs joinCodes hands over at a time,
// the number of codes it looks up at a time: enough independent loads to
// fill the core's miss queue several times over, few enough that the
// first pair's lines are still in L1 when its extensions run. A
// constant, not an option: 16 and 64 measure the same.
const joinBatch = index.SlotBatch

// pairJoin is the join of one (bank-1 part, bank-2 part) pair: the walk
// it takes and how its domain is cut into chunks.
type pairJoin struct {
	q1, q2 *index.Part
	// dense: both parts are dense, and the domain is words of the code
	// space. Otherwise drive, the smaller directory, is the domain and
	// other resolves its codes; swapped when drive is q2.
	dense        bool
	drive, other *index.Part
	swapped      bool
	domain       int // slots, or words when dense; a power of two when shuffled
	chunkSize    int
	firstChunk   int // the pair's first chunk in joinCodes' numbering
}

// joinCodes calls visit(wid, q1, q2, batch) with every code both of a
// pair of parts hold, for every (part of ix1, part of ix2) pair, as the
// pair of its directory slots (index.Part.Slot) — joinBatch pairs a
// call. Each pair's work is cut into contiguous chunks, numbered pair
// after pair, that workers claim in order through one atomic counter,
// and a chunk's pairs are delivered in ascending code order, the last
// batch of a chunk short — so the codes one worker visits in one pair
// ascend. There are two walks:
//
//   - both parts dense (index.Part.Dense): the chunks are word ranges of
//     the code space, and the two presence bitmaps are ANDed a word at a
//     time; a worker counts both sides' slots from the rank of its
//     chunk's first word (index.Part.WordRank), a popcount a word;
//   - otherwise the smaller directory drives — a sparse one always, since
//     of a dense and a sparse directory the sparse one is the smaller —
//     its slots are the chunks, its Codes are read in place, and a
//     chunk's codes are looked up in the other directory joinBatch at a
//     time (no lookup waits for another, index.Part.Slots): bit probes on
//     a dense part, bucket searches on a sparse one.
//
// visit runs on worker wid's goroutine and must not keep batch. With
// shuffled set the words, or the driving slots, are visited in a fixed
// odd-multiplier permutation of the next power of two (a bijection;
// slots past the directory's end are skipped): same codes, destroyed
// locality. No batch is delivered once ctx is cancelled.
func joinCodes(ctx context.Context, ix1, ix2 *index.Index, workers int, shuffled bool, visit func(wid int, q1, q2 *index.Part, batch []slotPair)) error {
	parts1, parts2 := ix1.Parts(), ix2.Parts()
	pairs := make([]pairJoin, 0, len(parts1)*len(parts2))
	numChunks := 0
	for i := range parts1 {
		for j := range parts2 {
			pj := pairJoin{q1: &parts1[i], q2: &parts2[j]}
			pj.dense = pj.q1.Dense() && pj.q2.Dense()
			pj.drive, pj.other = pj.q1, pj.q2
			if pj.swapped = pj.q2.NumCodes() < pj.q1.NumCodes(); pj.swapped {
				pj.drive, pj.other = pj.q2, pj.q1
			}
			pj.domain = pj.drive.NumCodes()
			if pj.dense {
				pj.domain = len(pj.q1.Bits)
			}
			if pj.domain == 0 {
				continue
			}
			if shuffled {
				pj.domain = 1 << bits.Len(uint(pj.domain-1))
			}
			n := min(workers*16, pj.domain)
			pj.chunkSize = (pj.domain + n - 1) / n
			pj.firstChunk = numChunks
			numChunks += (pj.domain + pj.chunkSize - 1) / pj.chunkSize
			pairs = append(pairs, pj)
		}
	}
	if numChunks == 0 {
		return ctx.Err()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			j := joinWorker{ctx: ctx, wid: wid, visit: visit}
			// A worker's claims ascend, so the pair it is in only moves on.
			k := 0
			// A cancelled stream stops burning cores at the next batch or
			// chunk claim, not at the end of the directory.
			for ctx.Err() == nil {
				chunk := int(next.Add(1)) - 1
				if chunk >= numChunks {
					return
				}
				for k+1 < len(pairs) && pairs[k+1].firstChunk <= chunk {
					k++
				}
				pj := &pairs[k]
				j.q1, j.q2 = pj.q1, pj.q2
				lo := (chunk - pj.firstChunk) * pj.chunkSize
				hi := min(lo+pj.chunkSize, pj.domain)
				var ok bool
				if pj.dense {
					ok = j.andWords(pj.q1, pj.q2, lo, hi, shuffled, pj.domain)
				} else {
					ok = j.probeSlots(pj.drive, pj.other, pj.swapped, lo, hi, shuffled, pj.domain)
				}
				if !ok || !j.flush() {
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	return ctx.Err()
}

// joinWorker is one joinCodes worker: the part pair it is in, the pairs
// found that no batch has taken yet, and where a full batch goes.
type joinWorker struct {
	ctx    context.Context
	wid    int
	visit  func(wid int, q1, q2 *index.Part, batch []slotPair)
	q1, q2 *index.Part
	buf    [joinBatch]slotPair
	n      int
}

// add queues p and hands over the batch once it is full. It reports
// false when the batch was due but ctx is cancelled.
func (j *joinWorker) add(p slotPair) bool {
	j.buf[j.n] = p
	if j.n++; j.n < joinBatch {
		return true
	}
	return j.flush()
}

// flush hands over the queued pairs, if any, unless ctx is cancelled.
func (j *joinWorker) flush() bool {
	if j.n == 0 {
		return true
	}
	if j.ctx.Err() != nil {
		return false
	}
	j.visit(j.wid, j.q1, j.q2, j.buf[:j.n])
	j.n = 0
	return true
}

// permute is the A4 ablation's visiting order: a fixed odd-multiplier
// bijection of [0, domain), a power of two.
func permute(i, domain int) int {
	return int(uint32(i) * 0x9E3779B1 & uint32(domain-1))
}

// andWords is the dense walk over words [lo, hi) of the code space (or
// of its permutation): the codes both bitmaps hold, ascending, each
// ranked on both sides by a popcount of its word below it.
func (j *joinWorker) andWords(q1, q2 *index.Part, lo, hi int, shuffled bool, domain int) bool {
	var k1, k2 int // the slots of the current word's first code
	for i := lo; i < hi; i++ {
		w := i
		if shuffled {
			w = permute(i, domain) // domain is len(Bits), itself a power of two
		}
		if shuffled || i == lo {
			k1, k2 = q1.WordRank(w), q2.WordRank(w)
		}
		x1, x2 := q1.Bits[w], q2.Bits[w]
		for m := x1 & x2; m != 0; m &= m - 1 {
			below := m&-m - 1 // the bits below the shared code's
			p := slotPair{
				k1:   int32(k1 + bits.OnesCount64(x1&below)),
				k2:   int32(k2 + bits.OnesCount64(x2&below)),
				code: seed.Code(64*w + bits.TrailingZeros64(m)),
			}
			if !j.add(p) {
				return false
			}
		}
		k1 += bits.OnesCount64(x1)
		k2 += bits.OnesCount64(x2)
	}
	return true
}

// probeSlots is the driven walk over the driving directory's slots
// [lo, hi) (or their permutation): a lookup's worth of codes at a time,
// resolved in the other directory by index.Part.Slots.
func (j *joinWorker) probeSlots(drive, other *index.Part, swapped bool, lo, hi int, shuffled bool, domain int) bool {
	// drive is sparse, so its Codes are there: the dense threshold is one
	// on a directory's size, and drive is the smaller directory.
	//
	// The next driving slots — where each is and its code — and where the
	// other side has them.
	var at, found [joinBatch]int32
	var lookup [joinBatch]seed.Code
	for lo < hi {
		n := 0
		for ; lo < hi && n < len(at); lo++ {
			i := lo
			if shuffled {
				if i = permute(lo, domain); i >= len(drive.Codes) {
					continue
				}
			}
			at[n], lookup[n] = int32(i), drive.Codes[i]
			n++
		}
		other.Slots(lookup[:n], found[:n])
		for k, s := range found[:n] {
			if s < 0 {
				continue
			}
			p := slotPair{k1: at[k], k2: s, code: lookup[k]}
			if swapped {
				p.k1, p.k2 = s, at[k]
			}
			if !j.add(p) {
				return false
			}
		}
	}
	return true
}
