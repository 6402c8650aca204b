// Package gapped implements gapped alignment extension by dynamic
// programming with an X-drop bound (paper §2.3): "alignments are
// constructed starting from the middle of an HSP and performing an
// extension on both extremities by dynamic programming techniques. The
// extension is controlled by an XDROP value… The final alignment
// consists in merging the right and left gapped extensions."
//
// The DP is the classic adaptive-band affine-gap X-drop extension
// (Zhang/Altschul, as in NCBI ALIGN_EX): rows advance along the first
// sequence, live columns are those within XDrop of the best score seen,
// and the band grows and shrinks as scores evolve. Scores live in one
// row of {M, Ix, Iy} cells updated in place; a traceback byte per band
// cell is kept so the caller gets exact match/mismatch/gap-open/
// gap-base counts — the quantities the m8 output format reports.
// Direct gap-to-gap state switches (Ix↔Iy) are disallowed, as in NCBI.
// Every parameter is at most stats.MaxParam. DESIGN.md §2 ("Step 3")
// has the state model and the loop structure.
package gapped

import (
	"sync"

	"repro/internal/stats"
)

// Params controls the extension.
type Params struct {
	// Match reward, Mismatch/GapOpen/GapExtend penalties, all positive.
	Match, Mismatch, GapOpen, GapExtend int32
	// XDrop prunes cells scoring more than XDrop below the running best.
	XDrop int32
}

// FromScoring converts a stats.Scoring plus X-drop into Params.
func FromScoring(s stats.Scoring, xdrop int32) Params {
	return Params{
		Match:     int32(s.Match),
		Mismatch:  int32(s.Mismatch),
		GapOpen:   int32(s.GapOpen),
		GapExtend: int32(s.GapExtend),
		XDrop:     xdrop,
	}
}

// Result describes one extension arm (or a merged pair). The optimal
// path ends Len1 bases into sequence 1 and Len2 bases into sequence 2.
type Result struct {
	Score      int32
	Len1, Len2 int32
	Matches    int32
	Mismatches int32
	GapOpens   int32
	// GapBases1 counts gap columns consuming sequence-1 bases (gaps in
	// sequence 2); GapBases2 the converse.
	GapBases1, GapBases2 int32
}

// AlignLen is the alignment length including gap columns, the "length"
// column of m8 output.
func (r Result) AlignLen() int32 {
	return r.Matches + r.Mismatches + r.GapBases1 + r.GapBases2
}

// GapBases returns the total gap columns.
func (r Result) GapBases() int32 { return r.GapBases1 + r.GapBases2 }

// Identity returns the fraction of alignment columns that are matches.
func (r Result) Identity() float64 {
	if l := r.AlignLen(); l > 0 {
		return float64(r.Matches) / float64(l)
	}
	return 0
}

// Add merges two arms that share only the anchor point.
func (r Result) Add(o Result) Result {
	return Result{
		Score:      r.Score + o.Score,
		Len1:       r.Len1 + o.Len1,
		Len2:       r.Len2 + o.Len2,
		Matches:    r.Matches + o.Matches,
		Mismatches: r.Mismatches + o.Mismatches,
		GapOpens:   r.GapOpens + o.GapOpens,
		GapBases1:  r.GapBases1 + o.GapBases1,
		GapBases2:  r.GapBases2 + o.GapBases2,
	}
}

const negInf = int32(-1 << 29)

// Affine DP states.
const (
	stM  = 0 // match/mismatch
	stIx = 1 // gap in sequence 2 (consumes sequence 1)
	stIy = 2 // gap in sequence 1 (consumes sequence 2)
)

// Traceback bit layout per cell (one byte):
//
//	bits 0-1: predecessor state of M   (stM, stIx, stIy)
//	bit  2:   predecessor of Ix is Ix  (else M)
//	bit  3:   predecessor of Iy is Iy  (else M)
const (
	tbIxExt = 1 << 2
	tbIyExt = 1 << 3
)

// row locates one DP row's traceback band.
type row struct {
	lo  int32 // column of the band's first byte
	off int   // where in Extender.tb that byte is
}

// cell is one DP column's three affine states. A dead state is exactly
// negInf.
type cell struct{ m, ix, iy int32 }

var deadCell = cell{negInf, negInf, negInf}

// Extender runs extensions, reusing its buffers across calls. Not safe
// for concurrent use; each worker goroutine owns one.
type Extender struct {
	prm Params

	cells []cell // the one DP row, indexed by column
	rows  []row
	tb    []byte // every row's traceback bytes, end to end

	collectOps bool
	ops        []byte
}

// Edit-path operation codes produced by the *Path methods.
const (
	// OpPair aligns one base of each sequence (match or mismatch).
	OpPair byte = 'P'
	// OpGap1 consumes a sequence-1 base against a gap in sequence 2.
	OpGap1 byte = '1'
	// OpGap2 consumes a sequence-2 base against a gap in sequence 1.
	OpGap2 byte = '2'
)

// NewExtender returns an extender with the given parameters. It panics
// unless each is positive (GapOpen may be zero) and at most
// stats.MaxParam — the bound that lets extend do arithmetic on dead
// states: negInf minus two penalties cannot wrap, and negInf plus a
// reward stays below negInf/2.
func NewExtender(prm Params) *Extender {
	if min(prm.Match, prm.Mismatch, prm.GapOpen+1, prm.GapExtend, prm.XDrop) <= 0 ||
		max(prm.Match, prm.Mismatch, prm.GapOpen, prm.GapExtend, prm.XDrop) > stats.MaxParam {
		panic("gapped: invalid params")
	}
	return &Extender{prm: prm}
}

// pool keeps extenders between runs: their buffers are most of what a
// small warm compare would otherwise allocate. A pooled extender keeps
// what it has grown to until the collector drops idle pool entries.
var pool sync.Pool

// Get returns an extender for prm: a pooled one when its parameters are
// those, a fresh one otherwise. Return it with Put once no call on it
// is in flight.
func Get(prm Params) *Extender {
	if e, ok := pool.Get().(*Extender); ok && e.prm == prm {
		return e
	}
	return NewExtender(prm)
}

// Put hands an extender taken with Get back to the pool.
func Put(e *Extender) { pool.Put(e) }

// ExtendRight extends from the anchor point rightwards: the first
// aligned pair is (d1[p1], d2[p2]), and the extension may consume up to
// hi1-p1 and hi2-p2 bases. The anchor contributes score 0.
func (e *Extender) ExtendRight(d1, d2 []byte, p1, hi1, p2, hi2 int32) Result {
	return e.extend(d1, d2, p1-1, p2-1, +1, hi1-p1, hi2-p2)
}

// ExtendLeft extends leftwards: the first aligned pair is
// (d1[p1-1], d2[p2-1]), consuming up to p1-lo1 and p2-lo2 bases.
func (e *Extender) ExtendLeft(d1, d2 []byte, p1, lo1, p2, lo2 int32) Result {
	return e.extend(d1, d2, p1, p2, -1, p1-lo1, p2-lo2)
}

// ExtendBoth runs both arms around the anchor (m1, m2) and merges them,
// following the paper's "middle of the HSP" seeding. The right arm
// consumes (m1, m2) itself.
func (e *Extender) ExtendBoth(d1, d2 []byte, m1, m2, lo1, hi1, lo2, hi2 int32) Result {
	left := e.ExtendLeft(d1, d2, m1, lo1, m2, lo2)
	right := e.ExtendRight(d1, d2, m1, hi1, m2, hi2)
	return left.Add(right)
}

// ExtendRightPath is ExtendRight additionally returning the edit path
// in left-to-right order (OpPair/OpGap1/OpGap2 per column). The slice
// is freshly allocated and owned by the caller.
func (e *Extender) ExtendRightPath(d1, d2 []byte, p1, hi1, p2, hi2 int32) (Result, []byte) {
	return e.ExtendBothPath(d1, d2, p1, p2, p1, hi1, p2, hi2)
}

// ExtendLeftPath is ExtendLeft with the edit path in left-to-right
// order.
func (e *Extender) ExtendLeftPath(d1, d2 []byte, p1, lo1, p2, lo2 int32) (Result, []byte) {
	return e.ExtendBothPath(d1, d2, p1, p2, lo1, p1, lo2, p2)
}

// ExtendBothPath merges the arms and their paths around the anchor.
// Both tracebacks append to one buffer — the left arm's walk is already
// leftmost→anchor, the right arm's end→anchor is reversed in place — so
// the returned path is the call's one allocation.
func (e *Extender) ExtendBothPath(d1, d2 []byte, m1, m2, lo1, hi1, lo2, hi2 int32) (Result, []byte) {
	e.collectOps, e.ops = true, e.ops[:0]
	left := e.ExtendLeft(d1, d2, m1, lo1, m2, lo2)
	n := len(e.ops)
	right := e.ExtendRight(d1, d2, m1, hi1, m2, hi2)
	e.collectOps = false
	for i, j := n, len(e.ops)-1; i < j; i, j = i+1, j-1 {
		e.ops[i], e.ops[j] = e.ops[j], e.ops[i]
	}
	return left.Add(right), append([]byte(nil), e.ops...)
}

// extend is the core banded X-drop DP. The i-th consumed base of
// sequence 1 is d1[base1+sign*i] (i ≥ 1), likewise for sequence 2;
// n1, n2 bound the consumable bases.
//
// One row of cells is updated in place (DESIGN.md §2). Before row i,
// cells[lo..hi] holds row i-1's band; walking left to right, the cell
// about to be overwritten is the one above, what its left neighbour
// held before is the diagonal and what it holds now feeds Iy — those
// two travel in locals. Every maximum is a select over plain integers:
// what derives from a dead state lies far below any threshold and is
// set back to exactly negInf before it is stored. A dead state's
// direction bits are arbitrary; traceback follows chosen states only.
func (e *Extender) extend(d1, d2 []byte, base1, base2, sign, n1, n2 int32) Result {
	prm := e.prm
	n1, n2 = max(n1, 0), max(n2, 0)
	match, mismatch := prm.Match, -prm.Mismatch
	ge, goe := prm.GapExtend, prm.GapOpen+prm.GapExtend
	// chainMax bounds how far a pure Iy chain can profitably run past
	// the previous band: each step costs GapExtend and the chain must
	// stay within XDrop of the best.
	chainMax := prm.XDrop/ge + 1

	e.rows, e.tb = e.rows[:0], e.tb[:0]

	// thresh is best - XDrop, refreshed only when best moves.
	best, thresh := int32(0), -prm.XDrop
	bestI, bestJ, bestState := int32(0), int32(0), stM

	// Row 0: only Iy (gaps in sequence 1) chained along j.
	row0Max := min(chainMax, n2)
	cells, dirs := e.row(row0Max+1, 0)
	cells[0], dirs[0] = cell{0, negInf, negInf}, 0
	lo, hi := int32(0), int32(0)
	for g, d := -goe, byte(0); hi < row0Max && g >= thresh; g, d = g-ge, tbIyExt {
		hi++ // the chain's first step opens, the rest extend
		cells[hi], dirs[hi] = cell{negInf, negInf, g}, d
	}
	e.tb = e.tb[:hi+1]
	e.rows = append(e.rows, row{})

	for i := int32(1); i <= n1; i++ {
		// A non-base compares unequal to every sequence-2 code.
		c1 := int32(d1[base1+sign*i])
		if c1 >= 4 {
			c1 = -1
		}
		jLimit := min(hi+1, n2)        // beyond this only a live Iy chain can continue
		jMax := min(hi+1+chainMax, n2) // hard bound on this row's live span
		off := len(e.tb)
		cells, dirs = e.row(jMax+1, lo)
		if hi < n2 {
			cells[hi+1] = deadCell // above column hi+1 lies nothing
		}
		newHi := lo - 1 // last live column of this row
		// The diagonal cell — its best state's score, and which state —
		// and the left neighbour's M and Iy. Left of lo lies nothing.
		dpred, dps := negInf, byte(stM)
		lm, liy := negInf, negInf

		j := lo
		if j == 0 {
			// Column 0 has no diagonal and no left neighbour, and
			// d2[base2] is not this arm's to read: Ix only. It cannot
			// raise best (it is the cell above minus a penalty).
			up := cells[0]
			ixv, dir := up.m-goe, byte(0)
			if x := up.ix - ge; x > ixv {
				ixv, dir = x, tbIxExt
			}
			c := deadCell
			if ixv >= thresh {
				c.ix, newHi = ixv, 0
			}
			cells[0], dirs[0] = c, dir
			if dpred, dps = up.m, stM; up.ix > dpred {
				dpred, dps = up.ix, stIx
			}
			j = 1
		}
		// Columns up to hi+1: the cell above is live or just made dead.
		if j <= jLimit {
			rc := cells[j : jLimit+1]
			rd := dirs[j-lo:][:len(rc)]
			q, step := int(base2+sign*j), int(sign)
			last := -1
			for k := range rc {
				up := rc[k]
				sc := mismatch
				if c1 == int32(d2[q]) {
					sc = match
				}
				q += step
				mv, dir := dpred+sc, dps
				ixv := up.m - goe
				if x := up.ix - ge; x > ixv {
					ixv, dir = x, dir|tbIxExt
				}
				iyv := lm - goe
				if y := liy - ge; y > iyv {
					iyv, dir = y, dir|tbIyExt
				}
				rd[k] = dir
				if dpred, dps = up.m, stM; up.ix > dpred {
					dpred, dps = up.ix, stIx
				}
				if up.iy > dpred {
					dpred, dps = up.iy, stIy
				}
				v := max(mv, ixv, iyv)
				if v < thresh {
					rc[k], lm, liy = deadCell, negInf, negInf
					continue
				}
				last = k
				if v > best {
					best, thresh = v, v-prm.XDrop
					bestI, bestJ, bestState = i, j+int32(k), stIy
					if v == mv { // ties go to M, then Ix
						bestState = stM
					} else if v == ixv {
						bestState = stIx
					}
				}
				if mv < negInf/2 {
					mv = negInf
				}
				if ixv < negInf/2 {
					ixv = negInf
				}
				if iyv < negInf/2 {
					iyv = negInf
				}
				rc[k], lm, liy = cell{mv, ixv, iyv}, mv, iyv
			}
			if last >= 0 {
				newHi = j + int32(last)
			}
		}
		// Past the band only Iy lives, each step below the last: the
		// chain stops at its first pruned cell and cannot raise best.
		if newHi == jLimit {
			for j = jLimit + 1; j <= jMax; j++ {
				iyv, dir := lm-goe, byte(0)
				if y := liy - ge; y > iyv {
					iyv, dir = y, tbIyExt
				}
				if iyv < thresh {
					break
				}
				cells[j], dirs[j-lo] = cell{negInf, negInf, iyv}, dir
				lm, liy, newHi = negInf, iyv, j
			}
		}
		e.tb = e.tb[:off+int(newHi-lo)+1] // the unused tail goes back
		if newHi < lo {
			break // X-drop termination
		}
		e.rows = append(e.rows, row{lo: lo, off: off})
		for hi = newHi; cells[lo] == deadCell; {
			lo++ // the next band starts at this row's first live cell
		}
	}

	return e.traceback(d1, d2, base1, base2, sign, bestI, bestJ, bestState, best)
}

// row readies a row spanning columns lo..n-1: it returns the cell row
// grown to n entries, contents kept (the previous row's band must
// survive), and n-lo traceback bytes appended to tb — not zeroed, a row
// writes every byte it keeps.
func (e *Extender) row(n, lo int32) ([]cell, []byte) {
	if int(n) > len(e.cells) {
		e.cells = append(e.cells, make([]cell, 2*int(n)-len(e.cells))...)
	}
	off := len(e.tb)
	if need := off + int(n-lo); need > cap(e.tb) {
		e.tb = append(make([]byte, 0, 2*max(need, 1<<15)), e.tb...)
	}
	e.tb = e.tb[:off+int(n-lo)]
	return e.cells, e.tb[off:]
}

// traceback walks from the best cell back to the origin, counting
// alignment statistics.
func (e *Extender) traceback(d1, d2 []byte, base1, base2, sign, bi, bj int32, bst int, score int32) Result {
	r := Result{Score: score, Len1: bi, Len2: bj}
	i, j, st := bi, bj, bst
	for i > 0 || j > 0 {
		rw := e.rows[i]
		dir := e.tb[rw.off+int(j-rw.lo)]
		switch st {
		case stM:
			a, b := d1[base1+sign*i], d2[base2+sign*j]
			if a == b && a < 4 {
				r.Matches++
			} else {
				r.Mismatches++
			}
			if e.collectOps {
				e.ops = append(e.ops, OpPair)
			}
			st = int(dir & 3)
			i--
			j--
		case stIx:
			r.GapBases1++
			if e.collectOps {
				e.ops = append(e.ops, OpGap1)
			}
			if dir&tbIxExt == 0 {
				r.GapOpens++
				st = stM
			}
			i--
		case stIy:
			r.GapBases2++
			if e.collectOps {
				e.ops = append(e.ops, OpGap2)
			}
			if dir&tbIyExt == 0 {
				r.GapOpens++
				st = stM
			}
			j--
		}
	}
	return r
}
