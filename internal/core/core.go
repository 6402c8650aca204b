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
//	        enumeration is their join, driven by the smaller one and
//	        resolved in the other by point lookups: the same codes in
//	        the same order, at a cost set by the banks (a 16-read query
//	        walks its few thousand codes, not 4^W), taken a batch at a
//	        time so that the cache misses of a batch overlap
//	step 3  gapped X-drop extension from the middle of each HSP, walking
//	        HSPs in diagonal order and skipping those already inside an
//	        alignment (packages gapped, align)
//	step 4  E-value annotation, dedup, sort, display (packages stats,
//	        tabular)
//
// Step 2 parallelizes over disjoint seed-code ranges — contiguous chunks
// of the driving directory — exactly as §4 of the paper anticipates
// ("the outer loop … can be run in parallel since seed order prevents
// identical HSPs to be generated"); workers share nothing but an atomic
// chunk counter. Step 3 is one walk over a bank-2 sequence's HSPs.
//
// # Index reuse
//
// Compare rebuilds both bank indexes on every call. For workloads that
// compare one bank against many others, prepare the indexes once and
// call CompareWithIndex instead: Options.IndexOptions reports the exact
// index.Options each side needs, Prepare builds (or fetches from an
// ixcache.Cache) the matching ixcache.Prepared pair, and
// CompareWithIndex runs steps 2–4 against them. The reuse contract
// (package ixcache): a built index.Index is immutable and safe for any
// number of concurrent readers, but valid only for the exact
// (bank, index.Options) it was built from — CompareWithIndex verifies
// the match and rejects mismatched indexes rather than produce output
// for seeds that don't exist.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/gapped"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
	"repro/internal/stats"
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
	// W is the seed length (paper uses 11; 10 with Asymmetric).
	W int
	// Scoring holds match/mismatch/gap parameters.
	Scoring stats.Scoring
	// UngappedXDrop is the step-2 X-drop threshold (raw score units).
	UngappedXDrop int32
	// GappedXDrop is the step-3 X-drop threshold.
	GappedXDrop int32
	// MinUngappedScore is S1 of paper Fig. 1: HSPs scoring below it are
	// not carried into step 3.
	MinUngappedScore int32
	// MaxEValue is the final report threshold (paper uses 1e-3).
	MaxEValue float64
	// Dust enables the low-complexity index filter of §2.1.
	Dust bool
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
	return Options{
		W:                11,
		Scoring:          stats.DefaultScoring,
		UngappedXDrop:    20,
		GappedXDrop:      25,
		MinUngappedScore: 22,
		MaxEValue:        1e-3,
		Dust:             true,
		Strand:           PlusOnly,
		OrderedRule:      true,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.W < 4 || o.W > seed.MaxW {
		return fmt.Errorf("core: W=%d out of range [4,%d]", o.W, seed.MaxW)
	}
	if err := o.Scoring.Validate(); err != nil {
		return err
	}
	if o.UngappedXDrop <= 0 || o.GappedXDrop <= 0 || o.UngappedXDrop > stats.MaxParam || o.GappedXDrop > stats.MaxParam {
		return fmt.Errorf("core: X-drop thresholds must be in [1,%d]", stats.MaxParam)
	}
	if o.MaxEValue <= 0 {
		return fmt.Errorf("core: MaxEValue must be positive")
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
	Step3Time time.Duration
	Step4Time time.Duration

	// HitPairs is Σ X1·X2 over all seeds (paper §2.2).
	HitPairs int64
	// Extensions, Aborted, Emitted summarize step 2.
	Extensions int64
	Aborted    int64
	// HSPs is the number of HSPs above MinUngappedScore.
	HSPs int
	// DuplicateHSPs counts duplicates removed when OrderedRule is off.
	DuplicateHSPs int
	// GappedExtensions counts step-3 DP runs; SkippedCovered counts
	// HSPs suppressed by the T_ALIGN containment test.
	GappedExtensions int
	SkippedCovered   int
	// Alignments is the final reported count; Subthreshold counts
	// alignments that failed MaxEValue.
	Alignments   int
	Subthreshold int
	IndexedBank1 int
	IndexedBank2 int
	MaskedSeeds  int
}

// Result bundles the alignments with run metrics.
type Result struct {
	Alignments []align.Alignment
	Metrics    Metrics
}

// IndexOptions reports the exact index.Options Compare derives from o
// for bank 1 and bank 2 — the options a prepared index must have been
// built with to be valid for CompareWithIndex under o. Each call
// returns fresh dust.Masker values; maskers are compared by parameter,
// not identity, so that is harmless.
func (o Options) IndexOptions() (o1, o2 index.Options) {
	var masker *dust.Masker
	if o.Dust {
		masker = dust.New(0, 0)
	}
	o1 = index.Options{W: o.W, Dust: masker, Workers: o.Workers}
	if o.Asymmetric {
		o1.SampleStep = 2
	}
	o2 = index.Options{W: o.W, Dust: masker, Workers: o.Workers}
	return o1, o2
}

// Prepare builds (or fetches) the prepared indexes Compare would build
// for (b1, b2) under opt. With a non-nil cache the builds are shared
// across calls keyed by (bank, options); with a nil cache the indexes
// are built directly. When b1 == b2 and the two sides need identical
// options (no Asymmetric), one index serves both.
func Prepare(c *ixcache.Cache, b1, b2 *bank.Bank, opt Options) (p1, p2 *ixcache.Prepared, err error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	o1, o2 := opt.IndexOptions()
	if c != nil {
		p1 = c.Get(b1, o1)
		p2 = c.Get(b2, o2)
		return p1, p2, nil
	}
	p1 = ixcache.Prepare(b1, o1)
	if b1 == b2 && !opt.Asymmetric {
		return p1, p1, nil
	}
	p2 = ixcache.Prepare(b2, o2)
	return p1, p2, nil
}

// Compare runs the full ORIS pipeline on two banks, building both
// indexes in place, and returns the whole alignment table. Callers
// comparing a bank against many others should Prepare once and call
// CompareWithIndex so the builds amortize.
func Compare(b1, b2 *bank.Bank, opt Options) (*Result, error) {
	return collect(func(emit Emit) (*Result, error) {
		return CompareStream(context.Background(), b1, b2, opt, emit)
	})
}

// CompareWithIndex runs the pipeline on prepared banks, skipping the
// index builds entirely (Metrics.IndexTime covers only work done here,
// e.g. the reverse-complement index of a BothStrands run). Both
// prepared values must match opt exactly — same bank, same derived
// index options — or an error is returned (see the package comment's
// reuse contract).
func CompareWithIndex(p1, p2 *ixcache.Prepared, opt Options) (*Result, error) {
	return collect(func(emit Emit) (*Result, error) {
		return CompareStreamWithIndex(context.Background(), p1, p2, opt, emit)
	})
}

// collect is the buffered report: a stream compare with an appending
// Emit. Implementing the buffered table as a collected stream is what
// makes "streamed output is byte-identical to buffered output"
// structural rather than something a test has to chase.
func collect(stream func(Emit) (*Result, error)) (*Result, error) {
	var all []align.Alignment
	res, err := stream(func(_ int, g []align.Alignment) error {
		all = append(all, g...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Alignments = all
	return res, nil
}

// step2Result carries a worker's private output.
type step2Result struct {
	hsps     []hsp.HSP
	hitPairs int64
	stats    hsp.Stats
	// touched sums the bank bytes step2 reads ahead of a batch's
	// extensions: a use, so that the compiler keeps the loads.
	touched byte
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
// globally unique, so workers need no coordination (paper §4).
//
// The join is driven by the smaller directory — a 16-read query against
// a megabase bank walks the query's few thousand codes, not the bank's
// million: workers claim contiguous chunks of it through an atomic
// counter and resolve its codes in the larger directory by point lookups
// (index.Slots). Per-worker order stays ascending, which is all the
// ordered-rule uniqueness proof needs. The A4 ablation
// (ShuffledSeedOrder) visits the driving directory's slots in a fixed
// pseudo-random permutation instead.
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
//scorislint:hotpath
func step2(ctx context.Context, b1, b2 *bank.Bank, ix1, ix2 *index.Index, opt Options) ([]hsp.HSP, step2Result, error) {
	workers := workerCount(opt)
	results := make([]step2Result, workers)
	ext := hsp.Extender{
		W:        opt.W,
		Match:    int32(opt.Scoring.Match),
		Mismatch: int32(opt.Scoring.Mismatch),
		XDrop:    opt.UngappedXDrop,
		Ordered:  opt.OrderedRule,
	}
	if opt.Asymmetric {
		// The abort rule must only fire on seeds that the half-word
		// bank-1 index actually contains.
		ext.SampleStep = 2
	}
	d1, d2 := b1.Data, b2.Data

	err := joinCodes(ctx, ix1, ix2, workers, opt.ShuffledSeedOrder, func(wid int, batch []slotPair) {
		r := &results[wid]
		// Both occurrence lists of every pair: [lo, hi) into Pos.
		var lo1, hi1, lo2, hi2 [joinBatch]int32
		for i, sp := range batch {
			lo1[i], hi1[i] = ix1.Offsets[sp.k1], ix1.Offsets[sp.k1+1]
			lo2[i], hi2[i] = ix2.Offsets[sp.k2], ix2.Offsets[sp.k2+1]
		}
		// The head of each list — a listed code has at least one occurrence
		// (index.FromParts proves it on load) — and the bank byte under it.
		var p1, p2 [joinBatch]int32
		for i := range batch {
			p1[i], p2[i] = ix1.Pos[lo1[i]], ix2.Pos[lo2[i]]
		}
		for i := range batch {
			r.touched += d1[p1[i]] + d2[p2[i]]
		}

		// The X1×X2 inner product of each shared code. Both occurrence lists
		// are contiguous CSR slice views: flat sequential reads, no pointer
		// chasing and no per-hit Bank lookups (an extension ends on the
		// banks' own sentinels). Bank-1 positions stay outermost whichever
		// directory drives the join.
		for i, sp := range batch {
			code := ix1.Codes[sp.k1]
			pos2 := ix2.Pos[lo2[i]:hi2[i]]
			for _, p1 := range ix1.Pos[lo1[i]:hi1[i]] {
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
		merged.stats.Extensions += results[i].stats.Extensions
		merged.stats.Aborted += results[i].stats.Aborted
		merged.stats.Emitted += results[i].stats.Emitted
	}
	return merged.hsps, merged, nil
}

// slotPair is one code both directories hold: its slot in each.
type slotPair struct{ k1, k2 int32 }

// joinBatch is the number of slot pairs joinCodes hands over at a time,
// the number of codes it looks up at a time: enough independent loads to
// fill the core's miss queue several times over, few enough that the
// first pair's lines are still in L1 when its extensions run. A
// constant, not an option: 16 and 64 measure the same.
const joinBatch = index.SlotBatch

// joinCodes calls visit(wid, batch) with every pair of directory slots
// (k1, k2) such that ix1.Codes[k1] == ix2.Codes[k2] — the codes both
// sorted directories hold — joinBatch pairs a call. The smaller
// directory drives: its slots are cut into contiguous chunks that
// workers claim in order through an atomic counter, a chunk's codes are
// looked up in the other directory joinBatch at a time (no lookup waits
// for another, index.Slots), and its pairs are delivered in slot
// order, the last batch of a chunk short — so the codes one worker
// visits ascend. visit runs on worker wid's goroutine and must not keep
// batch. With shuffled set the driving slots are visited in a fixed
// odd-multiplier permutation of the next power of two (a bijection;
// slots past the directory's end are skipped): same codes, destroyed
// locality. No batch is delivered once ctx is cancelled.
func joinCodes(ctx context.Context, ix1, ix2 *index.Index, workers int, shuffled bool, visit func(wid int, batch []slotPair)) error {
	drive, other := ix1, ix2
	swapped := len(ix2.Codes) < len(ix1.Codes)
	if swapped {
		drive, other = ix2, ix1
	}
	codes := drive.Codes
	if len(codes) == 0 {
		return ctx.Err()
	}
	domain := len(codes)
	if shuffled {
		domain = 1 << bits.Len(uint(len(codes)-1))
	}
	numChunks := min(workers*16, domain)
	chunkSize := (domain + numChunks - 1) / numChunks

	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// The chunk's next driving slots, a lookup's worth — where each
			// is, its code, and where the other side has it — and the pairs
			// found so far that no batch has taken.
			var at, found [joinBatch]int32
			var lookup [joinBatch]seed.Code
			var buf [joinBatch]slotPair
			// A cancelled stream stops burning cores at the next batch or
			// chunk claim, not at the end of the directory.
			deliver := func(batch []slotPair) bool {
				if ctx.Err() != nil {
					return false
				}
				visit(wid, batch)
				return true
			}
			for ctx.Err() == nil {
				chunk := int(next.Add(1)) - 1
				if chunk >= numChunks {
					return
				}
				lo := chunk * chunkSize
				hi := min(lo+chunkSize, domain)
				n := 0
				for lo < hi {
					w := 0
					for ; lo < hi && w < len(at); lo++ {
						i := lo
						if shuffled {
							i = int(uint32(lo) * 0x9E3779B1 & uint32(domain-1))
							if i >= len(codes) {
								continue
							}
						}
						at[w], lookup[w] = int32(i), codes[i]
						w++
					}
					other.Slots(lookup[:w], found[:w])
					for k, j := range found[:w] {
						if j < 0 {
							continue
						}
						if swapped {
							buf[n] = slotPair{j, at[k]}
						} else {
							buf[n] = slotPair{at[k], j}
						}
						if n++; n == joinBatch {
							if !deliver(buf[:n]) {
								return
							}
							n = 0
						}
					}
				}
				if n > 0 && !deliver(buf[:n]) {
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	return ctx.Err()
}

// extendBand is step 3 over one bank-2 sequence's diagonal-sorted HSPs:
// skip those an alignment already found covers, gapped-extend the rest
// from their midpoints. The two arms are run separately so the arm
// lengths yield the final alignment coordinates around the HSP midpoint.
func extendBand(b1, b2 *bank.Bank, hsps []hsp.HSP, ext *gapped.Extender, met *Metrics) []align.Alignment {
	var ta align.TAlign
	d1, d2 := b1.Data, b2.Data
	for _, h := range hsps {
		if ta.Covered(h) {
			met.SkippedCovered++
			continue
		}
		met.GappedExtensions++
		m1, m2 := h.Mid()
		s1 := b1.SeqAt(m1)
		s2 := b2.SeqAt(m2)
		lo1, hi1 := b1.SeqBounds(int(s1))
		lo2, hi2 := b2.SeqBounds(int(s2))
		la := ext.ExtendLeft(d1, d2, m1, lo1, m2, lo2)
		ra := ext.ExtendRight(d1, d2, m1, hi1, m2, hi2)
		r := la.Add(ra)
		if r.AlignLen() == 0 {
			continue
		}
		ta.Add(align.Alignment{
			Seq1: s1, Seq2: s2,
			S1: m1 - la.Len1, E1: m1 + ra.Len1,
			S2: m2 - la.Len2, E2: m2 + ra.Len2,
			Score:      r.Score,
			Matches:    r.Matches,
			Mismatches: r.Mismatches,
			GapOpens:   r.GapOpens,
			GapBases:   r.GapBases(),
			Length:     r.AlignLen(),
			Anchor1:    m1,
			Anchor2:    m2,
		})
	}
	return ta.All()
}
