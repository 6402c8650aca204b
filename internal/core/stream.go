// Incremental (per-query-sequence) result delivery for the ORIS
// pipeline. The paper's workload is intensive comparison — banks large
// enough that buffering a full alignment table before reporting a
// single line is exactly the wrong memory/latency shape — so the
// pipeline here is factored producer/consumer-style: step 2 still runs
// over the whole seed-code space (hit pairs arrive in seed order, not
// query order, so there is nothing per-query to deliver yet), but
// steps 3–4 process the HSPs of one bank-2 sequence at a time and hand
// each sequence's finished, sorted, E-value-filtered alignments to an
// Emit callback the moment they are final.
//
// Byte-identity with the buffered path is structural, not asserted:
// CompareWithIndex IS the stream path with an appending Emit, so the
// concatenation of emitted groups and the buffered alignment slice are
// the same bytes by construction. The equivalence of per-group step-3
// processing to the old whole-bank walk rests on two facts:
//
//   - extensions never cross record boundaries, so every alignment and
//     HSP lies inside one (bank-1 seq, bank-2 seq) coordinate box and
//     the T_ALIGN containment test can never fire across bank-2
//     sequences — partitioning the diagonal-sorted HSP walk by bank-2
//     sequence preserves every skip/extend decision;
//   - display order (align.SortForDisplay) is query-major, so the
//     whole-bank sort equals the concatenation of per-sequence sorts.
//
// Cancellation: the ctx is checked at every step-2 chunk claim and
// between per-sequence groups, so an abandoned stream stops burning
// cores within one chunk/group, not at the end of the compare.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/gapped"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/stats"
)

// Emit receives one bank-2 sequence's final alignments — deduped,
// E-value-annotated, threshold-filtered, display-sorted. It is called
// exactly once per bank-2 sequence, in bank order, including sequences
// with no alignments (empty group — so consumers can count progress).
// Returning a non-nil error aborts the compare with that error.
type Emit func(seq2 int, alignments []align.Alignment) error

// CompareStream runs the full ORIS pipeline on two banks, delivering
// results incrementally through emit (see Emit for the contract). The
// returned Result carries the run metrics only; its Alignments slice is
// nil — the alignments went through emit.
func CompareStream(ctx context.Context, b1, b2 *bank.Bank, opt Options, emit Emit) (*Result, error) {
	t0 := time.Now()
	p1, p2, err := Prepare(nil, b1, b2, opt)
	if err != nil {
		return nil, err
	}
	indexTime := time.Since(t0)
	res, err := CompareStreamWithIndex(ctx, p1, p2, opt, emit)
	if err != nil {
		return nil, err
	}
	res.Metrics.IndexTime += indexTime
	return res, nil
}

// CompareStreamWithIndex is CompareStream over prepared banks (the
// index builds amortized elsewhere). It is the one entry to the engine
// body, so the reuse contract is checked here and nowhere else: both
// prepared values must match opt exactly.
func CompareStreamWithIndex(ctx context.Context, p1, p2 *ixcache.Prepared, opt Options, emit Emit) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o1, o2 := opt.IndexOptions()
	if !p1.MatchesOptions(o1) {
		return nil, fmt.Errorf("core: prepared bank 1 does not match options (want W=%d, sample step %d, dust %v)",
			o1.W, o1.SampleStep, o1.Dust != nil)
	}
	if !p2.MatchesOptions(o2) {
		return nil, fmt.Errorf("core: prepared bank 2 does not match options (want W=%d, dust %v)",
			o2.W, o2.Dust != nil)
	}
	return compareStream(ctx, p1.Bank, p2.Bank, p1.Ix, p2.Ix, opt, emit)
}

// compareStream is the engine body: step 2 over the whole code
// space (both strands when asked), then steps 3–4 one bank-2 sequence
// at a time, emitting each finished group.
func compareStream(ctx context.Context, b1, b2 *bank.Bank, ix1, ix2 *index.Index, opt Options, emit Emit) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var met Metrics

	// ---- step 1 happened elsewhere: the indexes arrive prebuilt ----
	met.IndexedBank1 = ix1.Indexed
	met.IndexedBank2 = ix2.Indexed
	met.MaskedSeeds = ix1.MaskedOut + ix2.MaskedOut

	// ---- step 2: ordered hit extensions, plus strand ----
	t0 := time.Now()
	plus, err := runStep2(ctx, b1, b2, ix1, ix2, opt, &met)
	if err != nil {
		return nil, err
	}
	groups := groupBySeq2(b2, plus)
	met.Step2Time = time.Since(t0)

	// The reverse-complement pass runs its step 2 up front too: its
	// alignments for query sequence s must merge into s's emitted group,
	// so both strands' HSPs have to exist before the first group closes.
	var rc *bank.Bank
	var minus [][]hsp.HSP
	if opt.Strand == BothStrands {
		rc = b2.ReverseComplement()
		ti := time.Now()
		_, o2 := opt.IndexOptions()
		rcIx := index.Build(rc, o2)
		met.IndexTime += time.Since(ti)
		ti = time.Now()
		rcHSPs, err := runStep2(ctx, b1, rc, ix1, rcIx, opt, &met)
		if err != nil {
			return nil, err
		}
		minus = groupBySeq2(rc, rcHSPs)
		met.Step2Time += time.Since(ti)
	}

	// ---- steps 3–4, one bank-2 sequence at a time ----
	ka, err := stats.Ungapped(opt.Scoring.Match, opt.Scoring.Mismatch)
	if err != nil {
		return nil, err
	}
	m := b1.TotalBases()
	// One extender for the run: it keeps its cell row and traceback
	// buffer across calls, so bank-2 sequences do not each pay for their own.
	ext := gapped.Get(gapped.FromScoring(opt.Scoring, opt.GappedXDrop))
	defer gapped.Put(ext)
	for s := 0; s < b2.NumSeqs(); s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := step34(b1, b2, groups[s], opt, ext, ka, m, &met)
		if rc != nil {
			ralns := step34(b1, rc, minus[s], opt, ext, ka, m, &met)
			// Map reverse-complement coordinates back onto the original
			// bank-2 records: offsets reflect within each sequence.
			for i := range ralns {
				a := &ralns[i]
				_, hi := rc.SeqBounds(int(a.Seq2))
				oLo, _ := b2.SeqBounds(int(a.Seq2))
				lo, hi2 := oLo+(hi-a.E2), oLo+(hi-a.S2)
				a.S2, a.E2 = lo, hi2
				// The anchor refers to the discarded reverse-complement
				// bank; clear it so render reports "no anchor" instead
				// of garbage.
				a.Anchor1, a.Anchor2 = 0, 0
				a.Minus = true
			}
			out = append(out, ralns...)
		}
		align.SortForDisplay(out)
		met.Alignments += len(out)
		if err := emit(s, out); err != nil {
			return nil, err
		}
	}
	return &Result{Metrics: met}, nil
}

// runStep2 runs one strand's step 2, folding its counters into met and
// applying the ordered-rule-off dedup of the A1 ablation.
func runStep2(ctx context.Context, b1, b2 *bank.Bank, ix1, ix2 *index.Index, opt Options, met *Metrics) ([]hsp.HSP, error) {
	hsps, st2, err := step2(ctx, b1, b2, ix1, ix2, opt)
	if err != nil {
		return nil, err
	}
	met.HitPairs += st2.hitPairs
	met.Extensions += st2.stats.Extensions
	met.Aborted += st2.stats.Aborted
	if !opt.OrderedRule {
		before := len(hsps)
		hsps = hsp.Dedup(hsps)
		met.DuplicateHSPs += before - len(hsps)
	}
	met.HSPs += len(hsps)
	return hsps, nil
}

// groupBySeq2 buckets HSPs by the bank-2 sequence they lie in and
// diag-sorts each bucket — the step-3 processing order within a group.
// Extensions never cross record boundaries, so an HSP's S2 pins its
// whole box (and any alignment grown from it) to one sequence.
func groupBySeq2(b2 *bank.Bank, hsps []hsp.HSP) [][]hsp.HSP {
	counts := make([]int, b2.NumSeqs())
	for i := range hsps {
		counts[b2.SeqAt(hsps[i].S2)]++
	}
	groups := make([][]hsp.HSP, b2.NumSeqs())
	for s, n := range counts {
		if n > 0 {
			groups[s] = make([]hsp.HSP, 0, n)
		}
	}
	for i := range hsps {
		s := b2.SeqAt(hsps[i].S2)
		groups[s] = append(groups[s], hsps[i])
	}
	for s := range groups {
		hsp.SortByDiag(groups[s])
	}
	return groups
}

// step34 runs gapped extension (step 3) and statistics/dedup/threshold
// (step 4) over one diag-sorted HSP group, returning its surviving
// alignments unsorted (the caller display-sorts after the strand
// merge). m is the bank-1 search-space size for the E-value.
func step34(b1, b2 *bank.Bank, group []hsp.HSP, opt Options, ext *gapped.Extender, ka stats.KarlinAltschul, m int, met *Metrics) []align.Alignment {
	if len(group) == 0 {
		return nil
	}
	t0 := time.Now()
	raw := extendBand(b1, b2, group, ext, met)
	met.Step3Time += time.Since(t0)

	t0 = time.Now()
	deduped := align.Dedup(raw)
	out := deduped[:0]
	for i := range deduped {
		a := deduped[i]
		n := b2.SeqLen(int(a.Seq2))
		a.EValue = ka.EValue(int(a.Score), m, n)
		a.BitScore = ka.BitScore(int(a.Score))
		if a.EValue <= opt.MaxEValue {
			out = append(out, a)
		} else {
			met.Subthreshold++
		}
	}
	met.Step4Time += time.Since(t0)
	return out
}
