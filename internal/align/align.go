// Package align defines gapped alignment records and the T_ALIGN
// structure of paper §2.3: alignments are accumulated in diagonal order
// while step 3 walks the diagonal-sorted HSP list, and an HSP that
// already belongs to a previously computed alignment is skipped without
// a new gapped extension. Because both lists advance along the same
// diagonal axis, the containment test only ever touches a small active
// window ("testing this condition does not involve time consuming
// search … due to the locality of the data").
package align

import (
	"sort"

	"repro/internal/hsp"
)

// Alignment is one gapped alignment between a bank-1 and a bank-2
// sequence. Coordinates are bank Data positions, half open.
type Alignment struct {
	// Seq1, Seq2 are record indexes in bank 1 and bank 2.
	Seq1, Seq2 int32
	// S1, E1 and S2, E2 are the aligned spans.
	S1, E1 int32
	S2, E2 int32

	Score      int32
	Matches    int32
	Mismatches int32
	GapOpens   int32
	GapBases   int32
	// Length is the number of alignment columns including gaps.
	Length int32

	EValue   float64
	BitScore float64

	// Anchor1, Anchor2 record the HSP midpoint the gapped extension
	// started from (paper §2.3). Re-running the extension from the
	// anchor reproduces the exact alignment path, which is how package
	// render recovers the column-level alignment for display.
	Anchor1, Anchor2 int32

	// Minus marks alignments found on the reverse complement of the
	// bank-2 (query) sequence; coordinates are already mapped back to
	// the forward orientation.
	Minus bool
}

// Identity is the fraction of columns that are identical bases.
func (a *Alignment) Identity() float64 {
	if a.Length == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.Length)
}

// MinDiag and MaxDiag bound the diagonals of cells inside the
// alignment's bounding box: diag(i,j) = i−j for i∈[S1,E1), j∈[S2,E2).
func (a *Alignment) MinDiag() int32 { return a.S1 - (a.E2 - 1) }

// MaxDiag is the largest diagonal of any cell in the bounding box.
func (a *Alignment) MaxDiag() int32 { return (a.E1 - 1) - a.S2 }

// ContainsHSP reports whether h's box lies entirely inside a's box —
// the paper's "hsp ∈ T_ALIGN" test (fig. 1, line 14).
func (a *Alignment) ContainsHSP(h hsp.HSP) bool {
	return h.S1 >= a.S1 && h.E1 <= a.E1 && h.S2 >= a.S2 && h.E2 <= a.E2
}

// Contains reports whether o's box lies within a's box.
func (a *Alignment) Contains(o *Alignment) bool {
	return o.S1 >= a.S1 && o.E1 <= a.E1 && o.S2 >= a.S2 && o.E2 <= a.E2
}

// TAlign accumulates alignments produced from diagonal-ascending HSPs
// and answers "is this HSP already covered?" in amortized O(active set)
// time. It is not safe for concurrent use.
type TAlign struct {
	all []Alignment
	// active holds indexes into all whose MaxDiag may still reach
	// future (higher-diagonal) HSPs; pruned as the query diagonal
	// advances.
	active []int
}

// Add records a new alignment.
func (t *TAlign) Add(a Alignment) {
	t.all = append(t.all, a)
	t.active = append(t.active, len(t.all)-1)
}

// Covered reports whether h is contained in any recorded alignment.
// Callers must present HSPs in non-decreasing diagonal order for the
// pruning to be valid.
func (t *TAlign) Covered(h hsp.HSP) bool {
	d := h.Diag()
	// Prune actives that can never contain this or any future HSP.
	keep := t.active[:0]
	covered := false
	for _, i := range t.active {
		a := &t.all[i]
		if a.MaxDiag() < d {
			continue // stale: future HSPs have diag ≥ d
		}
		keep = append(keep, i)
		if !covered && a.MinDiag() <= d && a.ContainsHSP(h) {
			covered = true
		}
	}
	t.active = keep
	return covered
}

// Len returns the number of recorded alignments.
func (t *TAlign) Len() int { return len(t.all) }

// All returns the recorded alignments (shared backing array).
func (t *TAlign) All() []Alignment { return t.all }

// Dedup removes exact duplicates and alignments fully contained in a
// higher-or-equal-scoring alignment. It returns a fresh sorted slice.
// The T_ALIGN walk skips an HSP that lies inside an alignment already
// found, not an alignment that turns out to lie inside another: that is
// left to this pass.
func Dedup(as []Alignment) []Alignment {
	if len(as) <= 1 {
		return append([]Alignment(nil), as...)
	}
	sorted := append([]Alignment(nil), as...)
	// Sort so that potential containers come first: by sequence pair,
	// then larger boxes (smaller S1, larger E1) first.
	sort.Slice(sorted, func(i, j int) bool {
		a, b := &sorted[i], &sorted[j]
		if a.Seq1 != b.Seq1 {
			return a.Seq1 < b.Seq1
		}
		if a.Seq2 != b.Seq2 {
			return a.Seq2 < b.Seq2
		}
		if a.S1 != b.S1 {
			return a.S1 < b.S1
		}
		if a.E1 != b.E1 {
			return a.E1 > b.E1
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.S2 != b.S2 {
			return a.S2 < b.S2
		}
		if a.E2 != b.E2 {
			return a.E2 > b.E2
		}
		// Full determinism for records identical up to anchor metadata.
		if a.Anchor1 != b.Anchor1 {
			return a.Anchor1 < b.Anchor1
		}
		return a.Anchor2 < b.Anchor2
	})
	var out []Alignment
	for _, a := range sorted {
		dup := false
		// Only alignments in the same (Seq1, Seq2) group can contain a;
		// scan back through recent survivors of the group.
		for k := len(out) - 1; k >= 0; k-- {
			o := &out[k]
			if o.Seq1 != a.Seq1 || o.Seq2 != a.Seq2 {
				break
			}
			if o.Contains(&a) && o.Score >= a.Score {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, a)
		}
	}
	return out
}

// SortForDisplay orders alignments the way step 4 displays them:
// query-major — all of one bank-2 sequence's alignments before the
// next, in bank order, the way BLAST groups its -m 8 report per query —
// then ascending E-value, descending score, and coordinates for
// determinism within each query. Query-major grouping is also what
// makes the result path streamable: a query sequence's block of output
// is final the moment its own alignments are, so it can be emitted
// while later queries are still being extended, and the concatenated
// stream is byte-identical to the buffered report.
func SortForDisplay(as []Alignment) {
	sort.Slice(as, func(i, j int) bool {
		a, b := &as[i], &as[j]
		if a.Seq2 != b.Seq2 {
			return a.Seq2 < b.Seq2
		}
		if a.EValue != b.EValue {
			return a.EValue < b.EValue
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Seq1 != b.Seq1 {
			return a.Seq1 < b.Seq1
		}
		if a.S1 != b.S1 {
			return a.S1 < b.S1
		}
		return a.S2 < b.S2
	})
}
