// Package sensemetric implements the paper's §3.4 sensitivity
// comparison between two alignment result sets: "We consider that two
// alignments are equivalent if they overlap of more than 80%."
//
// From two m8 outputs it computes the paper's quantities:
//
//	SCtotal, BLtotal  — alignments found by each program
//	SCmiss            — reference (BLASTN) alignments with no
//	                    equivalent in the SCORIS output
//	BLmiss            — SCORIS alignments with no equivalent in BLASTN
//	SCORISmiss%       — SCmiss / BLtotal × 100
//	BLASTmiss%        — BLmiss / SCtotal × 100
package sensemetric

import (
	"repro/internal/tabular"
)

// DefaultMinOverlap is the paper's 80% equivalence threshold.
const DefaultMinOverlap = 0.8

// interval is a normalized alignment footprint.
type interval struct {
	qLo, qHi int // query span, 1-based inclusive, qLo ≤ qHi
	sLo, sHi int // subject span
	minus    bool
}

func normalize(r *tabular.Record) interval {
	iv := interval{qLo: r.QStart, qHi: r.QEnd, sLo: r.SStart, sHi: r.SEnd}
	if iv.qLo > iv.qHi {
		iv.qLo, iv.qHi = iv.qHi, iv.qLo
		iv.minus = !iv.minus
	}
	if iv.sLo > iv.sHi {
		iv.sLo, iv.sHi = iv.sHi, iv.sLo
		iv.minus = !iv.minus
	}
	return iv
}

// equivalent implements the 80%-overlap rule on both axes, using the
// shorter alignment's length as the denominator so that a slightly
// longer or shorter version of the same alignment still matches.
func equivalent(a, b interval, minOverlap float64) bool {
	if a.minus != b.minus {
		return false
	}
	ovQ := overlap(a.qLo, a.qHi, b.qLo, b.qHi)
	if ovQ <= 0 {
		return false
	}
	ovS := overlap(a.sLo, a.sHi, b.sLo, b.sHi)
	if ovS <= 0 {
		return false
	}
	lq := minInt(a.qHi-a.qLo+1, b.qHi-b.qLo+1)
	ls := minInt(a.sHi-a.sLo+1, b.sHi-b.sLo+1)
	return float64(ovQ) >= minOverlap*float64(lq) &&
		float64(ovS) >= minOverlap*float64(ls)
}

func overlap(alo, ahi, blo, bhi int) int {
	lo, hi := alo, ahi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	return hi - lo + 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pairKey groups alignments by (query, subject) sequence pair.
type pairKey struct {
	q, s string
}

// Index holds one program's output, grouped for fast equivalence
// queries.
type Index struct {
	byPair map[pairKey][]interval
}

// NewIndex builds an index over a result set.
func NewIndex(recs []tabular.Record) *Index {
	ix := &Index{byPair: make(map[pairKey][]interval, len(recs))}
	for i := range recs {
		k := pairKey{recs[i].Query, recs[i].Subject}
		ix.byPair[k] = append(ix.byPair[k], normalize(&recs[i]))
	}
	return ix
}

// Has reports whether the index holds an equivalent of rec.
func (ix *Index) Has(rec *tabular.Record, minOverlap float64) bool {
	iv := normalize(rec)
	for _, cand := range ix.byPair[pairKey{rec.Query, rec.Subject}] {
		if equivalent(iv, cand, minOverlap) {
			return true
		}
	}
	return false
}

// Report is the output of one two-sided comparison, named with the
// paper's terminology (A = SCORIS-N, B = BLASTN).
type Report struct {
	// SCTotal and BLTotal are the alignment counts of each program.
	SCTotal, BLTotal int
	// SCMiss counts BLASTN alignments with no SCORIS equivalent;
	// BLMiss counts SCORIS alignments with no BLASTN equivalent.
	SCMiss, BLMiss int
}

// SCORISMissPct is SCmiss / BLtotal × 100 (paper §3.4).
func (r Report) SCORISMissPct() float64 {
	if r.BLTotal == 0 {
		return 0
	}
	return 100 * float64(r.SCMiss) / float64(r.BLTotal)
}

// BLASTMissPct is BLmiss / SCtotal × 100.
func (r Report) BLASTMissPct() float64 {
	if r.SCTotal == 0 {
		return 0
	}
	return 100 * float64(r.BLMiss) / float64(r.SCTotal)
}

// Compare computes the full two-sided report. minOverlap ≤ 0 selects
// the paper's 80%.
func Compare(scoris, blast []tabular.Record, minOverlap float64) Report {
	if minOverlap <= 0 {
		minOverlap = DefaultMinOverlap
	}
	scIx := NewIndex(scoris)
	blIx := NewIndex(blast)
	rep := Report{SCTotal: len(scoris), BLTotal: len(blast)}
	for i := range blast {
		if !scIx.Has(&blast[i], minOverlap) {
			rep.SCMiss++
		}
	}
	for i := range scoris {
		if !blIx.Has(&scoris[i], minOverlap) {
			rep.BLMiss++
		}
	}
	return rep
}
