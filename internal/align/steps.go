// Steps 3–4 of paper Fig. 1, written once for the three engines. They
// do not depend on how step 2 found the HSPs: ORIS (package core), BLAT
// (package blat) and BLASTN (package blastn) differ in seeding and share
// everything from the gapped extension on, so a cross-engine difference
// is a difference in search strategy by construction.
//
// Every engine is its step 2 and a call of Run, which asks the engine
// for one bank-2 (query) sequence's HSPs at a time and emits that
// sequence's group. A group is final on its own, so the concatenation of
// the groups is the whole-table result, for two reasons:
//
//   - extensions never cross record boundaries, so every HSP and every
//     alignment lies inside one (bank-1 seq, bank-2 seq) box: the T_ALIGN
//     containment test never fires across bank-2 sequences, and Dedup
//     compares only within one (Seq1, Seq2);
//   - display order (SortForDisplay) is query-major and total, so the
//     whole-table sort is the concatenation of the per-sequence sorts.
package align

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bank"
	"repro/internal/gapped"
	"repro/internal/hsp"
	"repro/internal/seed"
	"repro/internal/stats"
)

// Params are the search parameters the three engines share: seed
// length, scoring, both X-drops, the step-2 and report thresholds and the
// low-complexity filter.
type Params struct {
	// W is the seed length (word size, tile size; the paper uses 11).
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
	// Dust enables the low-complexity filter of §2.1.
	Dust bool
}

// DefaultParams returns the paper-plausible configuration: W=11,
// +1/−3 scoring with 5/2 gaps, E ≤ 1e-3, dust filter on.
func DefaultParams() Params {
	return Params{
		W:                11,
		Scoring:          stats.DefaultScoring,
		UngappedXDrop:    20,
		GappedXDrop:      25,
		MinUngappedScore: 22,
		MaxEValue:        1e-3,
		Dust:             true,
	}
}

// Validate checks the shared parameters; each engine wraps the error in
// its own prefix.
func (p Params) Validate() error {
	if p.W < 4 || p.W > seed.MaxW {
		return fmt.Errorf("W=%d out of range [4,%d]", p.W, seed.MaxW)
	}
	if err := p.Scoring.Validate(); err != nil {
		return err
	}
	if p.UngappedXDrop <= 0 || p.GappedXDrop <= 0 || p.UngappedXDrop > stats.MaxParam || p.GappedXDrop > stats.MaxParam {
		return fmt.Errorf("X-drop thresholds must be in [1,%d]", stats.MaxParam)
	}
	if p.MaxEValue <= 0 {
		return errors.New("MaxEValue must be positive")
	}
	return nil
}

// Ungapped returns the step-2 extender p describes; ordered turns on the
// ORIS abort rule, which BLAT and BLASTN do not have.
func (p Params) Ungapped(ordered bool) hsp.Extender {
	return hsp.Extender{
		W:        p.W,
		Match:    int32(p.Scoring.Match),
		Mismatch: int32(p.Scoring.Mismatch),
		XDrop:    p.UngappedXDrop,
		Ordered:  ordered,
	}
}

// Stats are the step 3–4 counters and clocks, the same for every engine.
type Stats struct {
	Step3Time time.Duration
	Step4Time time.Duration
	// GappedExtensions counts step-3 DP runs; SkippedCovered counts
	// HSPs suppressed by the T_ALIGN containment test.
	GappedExtensions int
	SkippedCovered   int
	// Alignments is the final reported count; Subthreshold counts
	// alignments that failed MaxEValue.
	Alignments   int
	Subthreshold int
}

// Emit receives one bank-2 sequence's final alignments — deduped,
// E-value-annotated, threshold-filtered, display-sorted. It is called
// exactly once per bank-2 sequence, in bank order, including sequences
// with no alignments (empty group — so consumers can count progress).
// Returning a non-nil error aborts the compare with that error.
type Emit func(seq2 int, alignments []Alignment) error

// Result is an engine's output: the alignment table and the engine's
// metrics. A streamed compare returns it with Alignments nil.
type Result[M any] struct {
	Alignments []Alignment
	Metrics    M
}

// Collect is the buffered report: a stream compare with an appending
// Emit. Implementing the buffered table as a collected stream is what
// makes "streamed output is byte-identical to buffered output"
// structural rather than something a test has to chase.
func Collect[M any](stream func(Emit) (*Result[M], error)) (*Result[M], error) {
	var all []Alignment
	res, err := stream(func(_ int, g []Alignment) error {
		all = append(all, g...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Alignments = all
	return res, nil
}

// Run drives steps 3–4 of one compare of b1 against b2 and, when rc
// (b2's reverse complement) is not nil, against rc; p must have passed
// Validate. For each bank-2 sequence in bank order Run checks ctx, asks
// hsps for the sequence's HSPs (plus in b2, minus in rc, in any order),
// runs its group and emits it, exactly once, empty groups included. A
// sequence shorter than p.W holds no seed window and is not asked for.
// Run calls hsps in bank order from its own goroutine, so a source may
// reuse its scratch between calls. It returns the first error of ctx,
// hsps or emit; st collects the counters and clocks.
func (p Params) Run(ctx context.Context, b1, b2, rc *bank.Bank, st *Stats,
	hsps func(seq2 int) (plus, minus []hsp.HSP, err error), emit Emit) error {
	s := &steps{
		b1: b1, b2: b2, rc: rc,
		ext:       gapped.Get(gapped.FromScoring(p.Scoring, p.GappedXDrop)),
		ka:        stats.MustUngapped(p.Scoring.Match, p.Scoring.Mismatch),
		maxEValue: p.MaxEValue,
	}
	defer gapped.Put(s.ext)
	for seq2 := 0; seq2 < b2.NumSeqs(); seq2++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var plus, minus []hsp.HSP
		if b2.SeqLen(seq2) >= p.W {
			var err error
			if plus, minus, err = hsps(seq2); err != nil {
				return err
			}
		}
		if err := emit(seq2, s.group(seq2, plus, minus, st)); err != nil {
			return err
		}
	}
	return nil
}

// steps is steps 3–4 of one Run. It holds a pooled gapped extender,
// whose cell row and traceback buffer are reused across groups.
type steps struct {
	b1, b2, rc *bank.Bank
	ext        *gapped.Extender
	ka         stats.KarlinAltschul
	maxEValue  float64
}

// group runs steps 3–4 over bank-2 sequence seq2: plus holds its HSPs
// in b2, minus those in rc (ignored on a plus-only run). Each strand is
// extended, deduped and E-value-filtered on its own; minus alignments
// are then mapped back to forward coordinates, and the group is
// display-sorted.
func (s *steps) group(seq2 int, plus, minus []hsp.HSP, st *Stats) []Alignment {
	out := s.strand(s.b2, seq2, plus, st)
	if s.rc != nil {
		rev := s.strand(s.rc, seq2, minus, st)
		// Offsets reflect within the sequence.
		lo, _ := s.b2.SeqBounds(seq2)
		_, hi := s.rc.SeqBounds(seq2)
		for i := range rev {
			a := &rev[i]
			a.S2, a.E2 = lo+(hi-a.E2), lo+(hi-a.S2)
			// The anchor refers to the discarded reverse-complement bank;
			// clear it so render reports "no anchor" instead of garbage.
			a.Anchor1, a.Anchor2 = 0, 0
			a.Minus = true
		}
		out = append(out, rev...)
	}
	SortForDisplay(out)
	st.Alignments += len(out)
	return out
}

// strand is steps 3–4 over one strand of seq2, its HSPs in b2's
// coordinates: the T_ALIGN walk in diagonal order (sort the HSPs, skip
// one an alignment already found covers, gapped-extend the rest from
// their midpoints, the two arms separately so that their lengths place
// the alignment around the midpoint), then Dedup, E-value and bit
// score, and the MaxEValue cut. The survivors come back unsorted.
func (s *steps) strand(b2 *bank.Bank, seq2 int, hsps []hsp.HSP, st *Stats) []Alignment {
	if len(hsps) == 0 {
		return nil
	}
	t0 := time.Now()
	hsp.SortByDiag(hsps)
	var ta TAlign
	b1 := s.b1
	d1, d2 := b1.Data, b2.Data
	lo2, hi2 := b2.SeqBounds(seq2)
	for _, h := range hsps {
		if ta.Covered(h) {
			st.SkippedCovered++
			continue
		}
		st.GappedExtensions++
		m1, m2 := h.Mid()
		s1 := b1.SeqAt(m1)
		lo1, hi1 := b1.SeqBounds(int(s1))
		la := s.ext.ExtendLeft(d1, d2, m1, lo1, m2, lo2)
		ra := s.ext.ExtendRight(d1, d2, m1, hi1, m2, hi2)
		r := la.Add(ra)
		if r.AlignLen() == 0 {
			continue
		}
		ta.Add(Alignment{
			Seq1: s1, Seq2: int32(seq2),
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
	st.Step3Time += time.Since(t0)

	t0 = time.Now()
	m, n := b1.TotalBases(), b2.SeqLen(seq2)
	deduped := Dedup(ta.All())
	out := deduped[:0]
	for _, a := range deduped {
		a.EValue = s.ka.EValue(int(a.Score), m, n)
		a.BitScore = s.ka.BitScore(int(a.Score))
		if a.EValue <= s.maxEValue {
			out = append(out, a)
		} else {
			st.Subthreshold++
		}
	}
	st.Step4Time += time.Since(t0)
	return out
}
