// Package hsp implements ungapped hit extension with the ORIS ordered-
// seed abort rule — the key contribution of paper §2.2.
//
// Step 2 of the algorithm enumerates seeds from the lowest code to the
// highest and extends every hit pair. While the extension grows a run
// of consecutive matches, every run position where the last W bases
// matched is itself a seed hit; if that embedded seed's code is lower
// than the anchor's (or equal, on the left side), this HSP has already
// been generated when that seed was enumerated, so the extension
// aborts. The surviving extensions produce each HSP exactly once — from
// the leftmost occurrence of its minimal-code seed — with no duplicate-
// suppression table ("This is the key point of the ORIS algorithm").
//
// Extensions take no record bounds: every sequence in a bank.Bank's Data
// has a bank.Sentinel on both sides, which equals no base, so an arm
// that reaches the end of a record meets a mismatch whose byte says so.
// Hits must therefore lie in a Bank's Data; index.FromParts proves that
// of every position an index loaded from disk can hand out.
package hsp

import (
	"sort"

	"repro/internal/bank"
	"repro/internal/seed"
)

// HSP is an ungapped alignment between two banks, in bank Data
// coordinates, half open: bank1[S1:E1] aligns to bank2[S2:E2] with
// E1-S1 == E2-S2.
type HSP struct {
	S1, E1 int32
	S2, E2 int32
	Score  int32
}

// Diag returns the diagonal number S1-S2. Step 2 sorts HSPs by diagonal
// "to optimize data access of the next step" (paper §2.2).
func (h HSP) Diag() int32 { return h.S1 - h.S2 }

// Len returns the alignment length.
func (h HSP) Len() int32 { return h.E1 - h.S1 }

// Mid returns the midpoint pair, the anchor for gapped extension
// (paper §2.3: "starting from the middle of an HSP").
func (h HSP) Mid() (int32, int32) {
	off := (h.E1 - h.S1) / 2
	return h.S1 + off, h.S2 + off
}

// SortByDiag orders HSPs by (diagonal, S1), the step-3 processing order.
func SortByDiag(hs []HSP) {
	sort.Slice(hs, func(i, j int) bool {
		di, dj := hs[i].Diag(), hs[j].Diag()
		if di != dj {
			return di < dj
		}
		if hs[i].S1 != hs[j].S1 {
			return hs[i].S1 < hs[j].S1
		}
		if hs[i].E1 != hs[j].E1 {
			return hs[i].E1 < hs[j].E1
		}
		return hs[i].Score > hs[j].Score
	})
}

// Extender performs ungapped extensions. The zero value is unusable;
// fill every field.
type Extender struct {
	// W is the seed length.
	W int
	// Match is the positive per-base reward, Mismatch the positive
	// penalty.
	Match, Mismatch int32
	// XDrop stops an extension arm once the running score falls XDrop
	// below the best score seen on that arm.
	XDrop int32
	// Ordered enables the ORIS abort rule. The BLASTN baseline and the
	// A1 ablation run with Ordered=false.
	Ordered bool
	// SampleStep and SamplePhase mirror the bank-1 index sampling of
	// the asymmetric mode (§3.4). The abort rule may only fire on an
	// embedded seed that is actually IN the index: with half-word
	// sampling, an embedded lower seed at an unsampled position can
	// never generate the HSP itself, and aborting on it would lose the
	// HSP outright. Zero values mean every position is sampled.
	SampleStep, SamplePhase int32
}

// sampled reports whether a bank-1 window start position is in the
// sampled index universe.
func (e *Extender) sampled(p int32) bool {
	return e.SampleStep <= 1 || p%e.SampleStep == e.SamplePhase
}

// Stats counts extension outcomes for diagnostics and the A1 ablation.
type Stats struct {
	// Extensions is the number of Extend calls.
	Extensions int64
	// Aborted counts extensions stopped by the ordered-seed rule.
	Aborted int64
	// Emitted counts HSPs returned (before any score threshold).
	Emitted int64
}

// Extend grows the hit at (p1,p2) — identical W-mers with seed code
// anchor — into a maximal ungapped alignment. d1, d2 are the bank Data
// arrays. Each arm walks until the X-drop, the ordered abort, or the
// first step at which either byte is a bank.Sentinel — one past the
// shorter record's end, so extensions never cross record boundaries. A
// sentinel never matches, so only the mismatch path tests for it.
//
// ok is false when the ordered rule aborted: the HSP is a duplicate of
// one generated from a lower (or equal-and-leftmost) seed.
//
//scorislint:hotpath
func (e *Extender) Extend(d1, d2 []byte, p1, p2 int32, anchor seed.Code, st *Stats) (HSP, bool) {
	if st != nil {
		st.Extensions++
	}
	w := int32(e.W)
	seedScore := w * e.Match
	ordered := e.Ordered

	// ---- left arm ----
	// Walk q1 from p1-1 down. The abort rule consults the code of the
	// window starting at q1 only while a run of at least W matches is
	// alive, so the code is kept only then: rolled from the previous
	// step's while the run continues, re-encoded from d1 at the step a
	// new run reaches W (its W bases just matched, hence are valid, and
	// the code is exact). After an arm's first mismatch the roll is
	// dead work until W matches line up again; without the ordered rule
	// it is dead work throughout.
	var (
		score    = seedScore
		maxiL    = seedScore
		bestLeft = int32(0)
		run      = w
		code     = anchor
	)
	for l := int32(1); ; l++ {
		q1 := p1 - l
		q2 := p2 - l
		a, b := d1[q1], d2[q2]
		if a == b && a < 4 {
			score += e.Match
			if score > maxiL {
				maxiL = score
				bestLeft = l
			}
			run++
			if ordered && run >= w {
				if run == w {
					code, _ = seed.Encode(d1[q1:], e.W)
				} else {
					code = seed.RollLeft(code, a, d1[q1+w], e.W)
				}
				if code <= anchor && e.sampled(q1) {
					if st != nil {
						st.Aborted++
					}
					return HSP{}, false
				}
			}
		} else {
			if a == bank.Sentinel || b == bank.Sentinel {
				break
			}
			score -= e.Mismatch
			run = 0
			if maxiL-score >= e.XDrop {
				break
			}
		}
	}

	// ---- right arm ----
	// Walk q1 from p1+W up; the code is that of the window *ending* at
	// the current position (i.e. starting at q1-W+1), kept as above.
	var (
		maxiR     = seedScore
		bestRight = int32(0)
	)
	score = seedScore
	run = w
	code = anchor
	for l := int32(1); ; l++ {
		q1 := p1 + w - 1 + l
		q2 := p2 + w - 1 + l
		a, b := d1[q1], d2[q2]
		if a == b && a < 4 {
			score += e.Match
			if score > maxiR {
				maxiR = score
				bestRight = l
			}
			run++
			if ordered && run >= w {
				if run == w {
					code, _ = seed.Encode(d1[q1-w+1:], e.W)
				} else {
					code = seed.RollRight(code, a, e.W)
				}
				if code < anchor && e.sampled(q1-w+1) {
					if st != nil {
						st.Aborted++
					}
					return HSP{}, false
				}
			}
		} else {
			if a == bank.Sentinel || b == bank.Sentinel {
				break
			}
			score -= e.Mismatch
			run = 0
			if maxiR-score >= e.XDrop {
				break
			}
		}
	}

	h := HSP{
		S1:    p1 - bestLeft,
		E1:    p1 + w + bestRight,
		S2:    p2 - bestLeft,
		E2:    p2 + w + bestRight,
		Score: maxiL + maxiR - seedScore,
	}
	if st != nil {
		st.Emitted++
	}
	return h, true
}

// Rescore recomputes an HSP's score directly from the sequences; used
// by tests and assertions.
func Rescore(d1, d2 []byte, h HSP, match, mismatch int32) int32 {
	var s int32
	for i := int32(0); i < h.Len(); i++ {
		a, b := d1[h.S1+i], d2[h.S2+i]
		if a == b && a < 4 {
			s += match
		} else {
			s -= mismatch
		}
	}
	return s
}

// Identity returns the fraction of identical columns in an HSP.
func Identity(d1, d2 []byte, h HSP) float64 {
	if h.Len() == 0 {
		return 0
	}
	n := int32(0)
	for i := int32(0); i < h.Len(); i++ {
		a, b := d1[h.S1+i], d2[h.S2+i]
		if a == b && a < 4 {
			n++
		}
	}
	return float64(n) / float64(h.Len())
}

// Equal reports coordinate-and-score equality.
func (h HSP) Equal(o HSP) bool { return h == o }

// Contains reports whether o lies entirely within h on both sequences.
func (h HSP) Contains(o HSP) bool {
	return o.S1 >= h.S1 && o.E1 <= h.E1 && o.S2 >= h.S2 && o.E2 <= h.E2
}

// Dedup removes exact duplicates from a diagonal-sorted slice in place
// and returns the shortened slice. The naive (Ordered=false) pipeline
// needs this; the ORIS pipeline must not (property-tested).
func Dedup(hs []HSP) []HSP {
	if len(hs) < 2 {
		return hs
	}
	SortByDiag(hs)
	out := hs[:1]
	for _, h := range hs[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}
