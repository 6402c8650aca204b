// Package core implements the ORIS (ORdered Index Seed) pipeline — the
// primary contribution of Lavenier, "Ordered Index Seed Algorithm for
// Intensive DNA Sequence Comparison" (HiCOMB 2008). The four steps of
// paper Fig. 1:
//
//	step 1  index both banks (package index)
//	step 2  enumerate all 4^W seeds from the lowest code to the highest
//	        and run ordered ungapped extensions (package hsp) — each HSP
//	        is produced exactly once, no duplicate table needed
//	step 3  gapped X-drop extension from the middle of each HSP, walking
//	        HSPs in diagonal order and skipping those already inside an
//	        alignment (packages gapped, align)
//	step 4  E-value annotation, dedup, sort, display (packages stats,
//	        tabular)
//
// Step 2 parallelizes over disjoint seed-code ranges exactly as §4 of
// the paper anticipates ("the outer loop … can be run in parallel since
// seed order prevents identical HSPs to be generated"); workers share
// nothing but an atomic chunk counter. Step 3 optionally parallelizes
// over diagonal bands with a final dedup pass.
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
	// DustWindow and DustThreshold override the masker defaults when
	// positive.
	DustWindow    int
	DustThreshold float64
	// Asymmetric enables §3.4's 10-nt half-word indexing: bank 1 is
	// indexed at every other position only. W should be 10.
	Asymmetric bool
	// Strand selects single- or double-strand search.
	Strand Strand
	// Workers bounds step-2/step-3 parallelism; 0 means GOMAXPROCS.
	Workers int
	// ParallelStep3 also parallelizes gapped extension over diagonal
	// bands (a final dedup restores uniqueness).
	ParallelStep3 bool
	// OrderedRule can be disabled for the A1 ablation; the pipeline
	// then deduplicates HSPs explicitly, which is what the ordered rule
	// exists to avoid.
	OrderedRule bool
	// ShuffledSeedOrder enumerates the outer step-2 loop in a fixed
	// pseudo-random permutation instead of ascending code order (the A4
	// ablation). The HSP *set* is unchanged — the abort rule is
	// anchor-local — but the cache locality the paper credits for its
	// speed ("all the portions of sequence having the same seed are
	// implicitly and simultaneously moved into the cache") is destroyed.
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
	if o.UngappedXDrop <= 0 || o.GappedXDrop <= 0 {
		return fmt.Errorf("core: X-drop thresholds must be positive")
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
		masker = dust.New(o.DustWindow, o.DustThreshold)
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
}

func workerCount(opt Options) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// step2 enumerates the seed codes in ascending order, split into
// contiguous chunks claimed by workers via an atomic counter. The
// ordered rule makes every HSP globally unique, so workers need no
// coordination (paper §4).
//
// The normal path walks ix1's occupied-code directory (index.Codes)
// instead of all 4^W dictionary entries: codes absent from bank 1
// produce no hit pairs, and at any realistic bank size the dictionary
// is overwhelmingly empty, so the directory sweep removes millions of
// wasted Starts probes per run. Per-worker order stays ascending, which
// is all the ordered-rule uniqueness proof needs. The A4 ablation
// (ShuffledSeedOrder) keeps the full 4^W sweep so its fixed permutation
// of the whole code space is preserved.
//
//scorislint:hotpath
func step2(ctx context.Context, b1, b2 *bank.Bank, ix1, ix2 *index.Index, opt Options) ([]hsp.HSP, step2Result, error) {
	// The unit of work: either an index into ix1.Codes (directory walk)
	// or a raw code (shuffled full sweep).
	domain := len(ix1.Codes)
	if opt.ShuffledSeedOrder {
		domain = seed.NumCodes(opt.W)
	}
	workers := workerCount(opt)
	numChunks := workers * 16
	if numChunks > domain {
		numChunks = domain
	}
	if numChunks == 0 {
		return nil, step2Result{}, ctx.Err()
	}
	chunkSize := (domain + numChunks - 1) / numChunks

	results := make([]step2Result, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			ext := hsp.Extender{
				W:        opt.W,
				Match:    int32(opt.Scoring.Match),
				Mismatch: int32(opt.Scoring.Mismatch),
				XDrop:    opt.UngappedXDrop,
				Ordered:  opt.OrderedRule,
			}
			if opt.Asymmetric {
				// The abort rule must only fire on seeds that the
				// half-word bank-1 index actually contains.
				ext.SampleStep = 2
			}
			r := &results[wid]
			d1, d2 := b1.Data, b2.Data

			// doCode runs the X1×X2 inner product for one seed code.
			// Both occurrence lists are contiguous CSR slice views with
			// precomputed bounds sidecars: flat sequential reads, no
			// pointer chasing and no per-hit Bank lookups.
			doCode := func(code seed.Code) {
				s1, e1 := ix1.OccRange(code)
				if s1 == e1 {
					return
				}
				s2, e2 := ix2.OccRange(code)
				if s2 == e2 {
					return
				}
				pos2 := ix2.Pos[s2:e2]
				lo2 := ix2.OccLo[s2:e2]
				hi2 := ix2.OccHi[s2:e2]
				for i1 := s1; i1 < e1; i1++ {
					p1 := ix1.Pos[i1]
					lo1, hi1 := ix1.OccLo[i1], ix1.OccHi[i1]
					for j, p2 := range pos2 {
						if opt.SkipSelfPairs && p2 <= p1 {
							continue
						}
						r.hitPairs++
						h, ok := ext.Extend(d1, d2, p1, p2, lo1, hi1, lo2[j], hi2[j], code, &r.stats)
						if ok && h.Score >= opt.MinUngappedScore {
							r.hsps = append(r.hsps, h)
						}
					}
				}
			}

			for {
				// A cancelled stream stops burning cores at the next
				// chunk claim, not at the end of the code space.
				if ctx.Err() != nil {
					return
				}
				chunk := int(next.Add(1)) - 1
				if chunk >= numChunks {
					return
				}
				lo := chunk * chunkSize
				hi := lo + chunkSize
				if hi > domain {
					hi = domain
				}
				if lo >= hi {
					continue
				}
				if opt.ShuffledSeedOrder {
					for c := lo; c < hi; c++ {
						// Fixed odd-multiplier permutation of the code
						// space (a bijection mod the power-of-two size):
						// same seeds, destroyed enumeration locality.
						doCode(seed.Code(uint32(c) * 0x9E3779B1 & uint32(domain-1)))
					}
				} else {
					for _, code := range ix1.Codes[lo:hi] {
						doCode(code)
					}
				}
			}
		}(wid)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
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

// step3Sequential is the reference step 3: walk diagonal-sorted HSPs,
// skip covered ones, gapped-extend the rest from their midpoints.
func step3Sequential(b1, b2 *bank.Bank, hsps []hsp.HSP, opt Options, met *Metrics) []align.Alignment {
	ext := gapped.NewExtender(gapped.FromScoring(opt.Scoring, opt.GappedXDrop))
	var ta align.TAlign
	extendBand(b1, b2, hsps, ext, &ta, met)
	return ta.All()
}

// step3Parallel splits the diagonal-sorted HSP list into contiguous
// bands handled by independent workers. Band-boundary effects can
// produce duplicate or contained alignments, which the step-4 dedup
// removes (DESIGN.md, "Parallel step 3").
func step3Parallel(b1, b2 *bank.Bank, hsps []hsp.HSP, opt Options, met *Metrics) []align.Alignment {
	workers := workerCount(opt)
	if len(hsps) < 4*workers {
		return step3Sequential(b1, b2, hsps, opt, met)
	}
	chunk := (len(hsps) + workers - 1) / workers
	tas := make([]align.TAlign, workers)
	mets := make([]Metrics, workers)
	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		lo := wid * chunk
		hi := lo + chunk
		if hi > len(hsps) {
			hi = len(hsps)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(wid, lo, hi int) {
			defer wg.Done()
			ext := gapped.NewExtender(gapped.FromScoring(opt.Scoring, opt.GappedXDrop))
			extendBand(b1, b2, hsps[lo:hi], ext, &tas[wid], &mets[wid])
		}(wid, lo, hi)
	}
	wg.Wait()
	var all []align.Alignment
	for i := range tas {
		all = append(all, tas[i].All()...)
		met.GappedExtensions += mets[i].GappedExtensions
		met.SkippedCovered += mets[i].SkippedCovered
	}
	return all
}

// extendBand processes one diagonal-sorted HSP band against a TAlign.
// The two arms are run separately so the arm lengths yield the final
// alignment coordinates around the HSP midpoint.
func extendBand(b1, b2 *bank.Bank, hsps []hsp.HSP, ext *gapped.Extender, ta *align.TAlign, met *Metrics) {
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
}
