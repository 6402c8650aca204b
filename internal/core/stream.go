// Incremental (per-query-sequence) result delivery for the ORIS
// pipeline. The paper's workload is intensive comparison — banks large
// enough that buffering a full alignment table before reporting a
// single line is exactly the wrong memory/latency shape — so the
// pipeline here is factored producer/consumer-style: step 2 still runs
// over the whole seed-code space (hit pairs arrive in seed order, not
// query order, so there is nothing per-query to deliver yet), but
// steps 3–4 (align.Run, shared with the other two engines) process
// the HSPs of one bank-2 sequence at a time and hand each sequence's
// finished, sorted, E-value-filtered alignments to an align.Emit
// callback the moment they are final.
//
// Byte-identity with the buffered path is structural, not asserted:
// CompareWithIndex IS the stream path with an appending Emit
// (align.Collect), so the concatenation of emitted groups and the
// buffered alignment slice are the same bytes by construction; why a
// group is final on its own is in package align.
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
	"repro/internal/hsp"
	"repro/internal/index"
)

// CompareStream runs the full ORIS pipeline on two banks, delivering
// results incrementally through emit (see align.Emit for the contract).
// The returned Result carries the run metrics only; its Alignments slice
// is nil — the alignments went through emit.
func CompareStream(ctx context.Context, b1, b2 *bank.Bank, opt Options, emit align.Emit) (*Result, error) {
	t0 := time.Now()
	ix1, ix2, err := Prepare(nil, b1, b2, opt)
	if err != nil {
		return nil, err
	}
	indexTime := time.Since(t0)
	res, err := CompareStreamWithIndex(ctx, ix1, ix2, opt, emit)
	if err != nil {
		return nil, err
	}
	res.Metrics.IndexTime += indexTime
	return res, nil
}

// CompareStreamWithIndex is CompareStream over prepared indexes (the
// builds amortized elsewhere); the banks are the indexes' own. It is
// the one entry to the engine body, so the reuse contract is checked
// here and nowhere else: both indexes must have been built with the
// index options opt derives.
func CompareStreamWithIndex(ctx context.Context, ix1, ix2 *index.Index, opt Options, emit align.Emit) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	o1, o2 := opt.IndexOptions()
	if ix1 == nil || ix1.Options().Key() != o1.Key() {
		return nil, fmt.Errorf("core: bank 1's index does not match options (want W=%d, sample step %d, dust %v)",
			o1.W, o1.SampleStep, o1.Dust)
	}
	if ix2 == nil || ix2.Options().Key() != o2.Key() {
		return nil, fmt.Errorf("core: bank 2's index does not match options (want W=%d, dust %v)",
			o2.W, o2.Dust)
	}
	return compareStream(ctx, ix1, ix2, opt, emit)
}

// compareStream is the engine body: step 2 over the whole code
// space (both strands when asked), then steps 3–4 one bank-2 sequence
// at a time, emitting each finished group.
func compareStream(ctx context.Context, ix1, ix2 *index.Index, opt Options, emit align.Emit) (*Result, error) {
	b1, b2 := ix1.Bank, ix2.Bank
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
	err = opt.Run(ctx, b1, b2, rc, &met.Stats, func(s int) ([]hsp.HSP, []hsp.HSP, error) {
		if minus == nil {
			return groups[s], nil, nil
		}
		return groups[s], minus[s], nil
	}, emit)
	if err != nil {
		return nil, err
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
	met.WindowsProven += st2.proven
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

// groupBySeq2 buckets HSPs by the bank-2 sequence they lie in.
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
	return groups
}
