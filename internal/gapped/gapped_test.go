package gapped

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/stats"
)

var testParams = Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: stats.MaxParam}

// refExtend is a brute-force full-matrix affine-gap extension: the
// maximum over all cells of the best path from (0,0), with the same
// state model (no Ix↔Iy switches). Used as the oracle for the banded
// X-drop implementation when XDrop is effectively infinite.
func refExtend(s1, s2 []byte, prm Params) int32 {
	n1, n2 := int32(len(s1)), int32(len(s2))
	type cell struct{ m, ix, iy int32 }
	prev := make([]cell, n2+1)
	cur := make([]cell, n2+1)
	for j := range prev {
		prev[j] = cell{negInf, negInf, negInf}
	}
	prev[0].m = 0
	for j := int32(1); j <= n2; j++ {
		open := prev[j-1].m - prm.GapOpen - prm.GapExtend
		ext := prev[j-1].iy - prm.GapExtend
		if open > ext {
			prev[j].iy = open
		} else if prev[j-1].iy > negInf/2 {
			prev[j].iy = ext
		}
	}
	best := int32(0)
	for j := int32(0); j <= n2; j++ {
		if v := max3(prev[j]); v > best {
			best = v
		}
	}
	for i := int32(1); i <= n1; i++ {
		for j := range cur {
			cur[j] = cell{negInf, negInf, negInf}
		}
		for j := int32(0); j <= n2; j++ {
			if j >= 1 {
				pred := max3(prev[j-1])
				if pred > negInf/2 {
					if s1[i-1] == s2[j-1] && s1[i-1] < 4 {
						cur[j].m = pred + prm.Match
					} else {
						cur[j].m = pred - prm.Mismatch
					}
				}
			}
			if prev[j].m > negInf/2 || prev[j].ix > negInf/2 {
				open := prev[j].m - prm.GapOpen - prm.GapExtend
				ext := prev[j].ix - prm.GapExtend
				if open >= ext && prev[j].m > negInf/2 {
					cur[j].ix = open
				} else if prev[j].ix > negInf/2 {
					cur[j].ix = ext
				}
			}
			if j >= 1 && (cur[j-1].m > negInf/2 || cur[j-1].iy > negInf/2) {
				open := cur[j-1].m - prm.GapOpen - prm.GapExtend
				ext := cur[j-1].iy - prm.GapExtend
				if open >= ext && cur[j-1].m > negInf/2 {
					cur[j].iy = open
				} else if cur[j-1].iy > negInf/2 {
					cur[j].iy = ext
				}
			}
			if v := max3(cur[j]); v > best {
				best = v
			}
		}
		prev, cur = cur, prev
	}
	return best
}

func max3(c struct{ m, ix, iy int32 }) int32 {
	v := c.m
	if c.ix > v {
		v = c.ix
	}
	if c.iy > v {
		v = c.iy
	}
	return v
}

func enc(s string) []byte { return dna.Encode([]byte(s)) }

// pad returns a coded buffer with sentinels around the payload so the
// extender can be pointed at interior coordinates.
func pad(s string) ([]byte, int32, int32) {
	codes := append([]byte{0xF0}, enc(s)...)
	codes = append(codes, 0xF0)
	return codes, 1, int32(len(codes) - 1)
}

func TestExtendRightPerfectMatch(t *testing.T) {
	d1, lo1, hi1 := pad("ACGTACGTAC")
	d2, lo2, hi2 := pad("ACGTACGTAC")
	_ = lo2
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r.Score != 10 || r.Matches != 10 || r.Mismatches != 0 || r.GapOpens != 0 {
		t.Errorf("perfect match: %+v", r)
	}
	if r.Len1 != 10 || r.Len2 != 10 || r.AlignLen() != 10 {
		t.Errorf("lengths: %+v", r)
	}
}

func TestExtendRightWithSubstitution(t *testing.T) {
	d1, lo1, hi1 := pad("ACGTACGTACGTACGT")
	d2, _, hi2 := pad("ACGTACGAACGTACGT") // one substitution at offset 7
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r.Score != 15-3 || r.Matches != 15 || r.Mismatches != 1 {
		t.Errorf("substitution: %+v", r)
	}
}

func TestExtendRightWithInsertion(t *testing.T) {
	// d2 has 2 extra bases after offset 8; a long match continues after,
	// so bridging with one gap of length 2 wins.
	d1, lo1, hi1 := pad("ACGTACGT" + "TTTTCCCCGGGGAAAATTTT")
	d2, _, hi2 := pad("ACGTACGT" + "CA" + "TTTTCCCCGGGGAAAATTTT")
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	// 28 matches, one gap open of 2 bases: 28 - 5 - 2*2 = 19.
	if r.Score != 19 || r.Matches != 28 || r.GapOpens != 1 || r.GapBases2 != 2 || r.GapBases1 != 0 {
		t.Errorf("insertion: %+v", r)
	}
	if r.Len1 != 28 || r.Len2 != 30 {
		t.Errorf("lengths: %+v", r)
	}
	if r.AlignLen() != 30 {
		t.Errorf("align len = %d, want 30", r.AlignLen())
	}
}

func TestExtendLeftMirrorsRight(t *testing.T) {
	s1 := "ACGTACGTTTGGCACGATCA"
	s2 := "ACGTACGTATGGCACGATCA"
	r1 := func() Result {
		d1, lo1, hi1 := pad(s1)
		d2, _, hi2 := pad(s2)
		return NewExtender(testParams).ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	}()
	rev := func(s string) string {
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return string(b)
	}
	r2 := func() Result {
		d1, _, hi1 := pad(rev(s1))
		d2, lo2, hi2 := pad(rev(s2))
		_ = lo2
		return NewExtender(testParams).ExtendLeft(d1, d2, hi1, 1, hi2, 1)
	}()
	if r1.Score != r2.Score || r1.Matches != r2.Matches || r1.Mismatches != r2.Mismatches {
		t.Errorf("left/right asymmetry: right %+v, left-on-reversed %+v", r1, r2)
	}
}

func TestScoreConsistencyWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	letters := []byte("ACGT")
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(80)
		s1 := make([]byte, n)
		for i := range s1 {
			s1[i] = letters[rng.Intn(4)]
		}
		// derive s2 by mutating s1
		s2 := make([]byte, 0, n+10)
		for _, c := range s1 {
			switch rng.Intn(12) {
			case 0:
				s2 = append(s2, letters[rng.Intn(4)]) // substitute
			case 1:
				s2 = append(s2, c, letters[rng.Intn(4)]) // insert
			case 2: // delete
			default:
				s2 = append(s2, c)
			}
		}
		d1, lo1, hi1 := pad(string(s1))
		d2, _, hi2 := pad(string(s2))
		e := NewExtender(testParams)
		r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
		p := testParams
		recomputed := r.Matches*p.Match - r.Mismatches*p.Mismatch -
			r.GapOpens*p.GapOpen - (r.GapBases1+r.GapBases2)*p.GapExtend
		if recomputed != r.Score {
			t.Fatalf("trial %d: score %d but stats give %d (%+v)", trial, r.Score, recomputed, r)
		}
		if r.Len1 != r.Matches+r.Mismatches+r.GapBases1 {
			t.Fatalf("trial %d: Len1 inconsistent: %+v", trial, r)
		}
		if r.Len2 != r.Matches+r.Mismatches+r.GapBases2 {
			t.Fatalf("trial %d: Len2 inconsistent: %+v", trial, r)
		}
	}
}

func TestBandedMatchesReferenceDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	letters := []byte("ACGT")
	for trial := 0; trial < 150; trial++ {
		n1 := 1 + rng.Intn(40)
		n2 := 1 + rng.Intn(40)
		s1 := make([]byte, n1)
		s2 := make([]byte, n2)
		for i := range s1 {
			s1[i] = letters[rng.Intn(4)]
		}
		for i := range s2 {
			s2[i] = letters[rng.Intn(4)]
		}
		// Half the trials: make s2 a mutated copy so positive scores occur.
		if trial%2 == 0 {
			s2 = append([]byte(nil), s1...)
			for i := range s2 {
				if rng.Intn(10) == 0 {
					s2[i] = letters[rng.Intn(4)]
				}
			}
		}
		d1, lo1, hi1 := pad(string(s1))
		d2, _, hi2 := pad(string(s2))
		e := NewExtender(testParams)
		got := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
		want := refExtend(enc(string(s1)), enc(string(s2)), testParams)
		if got.Score != want {
			t.Fatalf("trial %d: banded %d, reference %d\ns1=%s\ns2=%s",
				trial, got.Score, want, s1, s2)
		}
	}
}

func TestXDropPrunesDistantRecovery(t *testing.T) {
	// 5 matches, then 10 mismatches, then 40 matches. With a small
	// X-drop the extension must stop before the recovery region; with an
	// effectively infinite X-drop the bridge strictly wins
	// (5 − 30 + 40 = 15 > 5).
	block := "CAGGTCAGGTCAGGTCAGGTCAGGTCAGGTCAGGTCAGGT"
	s1 := "ACGTT" + "AAAAAAAAAA" + block
	s2 := "ACGTT" + "CCCCCCCCCC" + block
	d1, lo1, hi1 := pad(s1)
	d2, _, hi2 := pad(s2)
	small := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 8})
	r := small.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r.Score != 5 || r.Len1 != 5 {
		t.Errorf("xdrop=8 should stop at the first block: %+v", r)
	}
	big := NewExtender(testParams)
	r2 := big.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r2.Score != 15 || r2.Matches != 45 || r2.Mismatches != 10 {
		t.Errorf("infinite xdrop should bridge: %+v", r2)
	}
}

func TestExtendBothMergesArms(t *testing.T) {
	s := "ACGTTGCAGGTACCTTACGATT"
	d1, lo1, hi1 := pad(s)
	d2, lo2, hi2 := pad(s)
	e := NewExtender(testParams)
	mid := lo1 + int32(len(s))/2
	r := e.ExtendBoth(d1, d2, mid, mid, lo1, hi1, lo2, hi2)
	if r.Score != int32(len(s)) || r.Matches != int32(len(s)) {
		t.Errorf("ExtendBoth on identical sequences: %+v", r)
	}
	if r.Len1 != int32(len(s)) || r.Len2 != int32(len(s)) {
		t.Errorf("full coverage expected: %+v", r)
	}
}

func TestExtendRespectsBounds(t *testing.T) {
	// Identical long sequences but tight bounds: extension must not read
	// past hi1/hi2.
	s := "ACGTACGTACGTACGTACGT"
	d1, lo1, _ := pad(s)
	d2, lo2, _ := pad(s)
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, lo1+5, lo2, lo2+5)
	if r.Len1 != 5 || r.Score != 5 {
		t.Errorf("bounded extension: %+v", r)
	}
	r = e.ExtendLeft(d1, d2, lo1+8, lo1+3, lo2+8, lo2+3)
	if r.Len1 != 5 || r.Score != 5 {
		t.Errorf("bounded left extension: %+v", r)
	}
}

func TestZeroLengthArms(t *testing.T) {
	d1, lo1, _ := pad("ACGT")
	d2, lo2, _ := pad("ACGT")
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, lo1, lo2, lo2)
	if r.Score != 0 || r.AlignLen() != 0 {
		t.Errorf("empty right arm: %+v", r)
	}
	r = e.ExtendLeft(d1, d2, lo1, lo1, lo2, lo2)
	if r.Score != 0 || r.AlignLen() != 0 {
		t.Errorf("empty left arm: %+v", r)
	}
}

func TestMismatchedAnchorStillExtends(t *testing.T) {
	// First pair mismatches, then 20 matches: score 20-3=17.
	s1 := "A" + "CAGGTCAGGTCAGGTCAGGT"
	s2 := "G" + "CAGGTCAGGTCAGGTCAGGT"
	d1, lo1, hi1 := pad(s1)
	d2, _, hi2 := pad(s2)
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r.Score != 17 || r.Mismatches != 1 || r.Matches != 20 {
		t.Errorf("mismatched anchor: %+v", r)
	}
}

func TestAmbiguousBasesAreMismatches(t *testing.T) {
	s1 := "ACGTNACGTACGTAAC"
	s2 := "ACGTNACGTACGTAAC"
	d1, lo1, hi1 := pad(s1)
	d2, _, hi2 := pad(s2)
	e := NewExtender(testParams)
	r := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	if r.Matches != 15 || r.Mismatches != 1 {
		t.Errorf("N vs N must mismatch: %+v", r)
	}
}

func TestExtenderReusableAcrossCalls(t *testing.T) {
	e := NewExtender(testParams)
	d1, lo1, hi1 := pad("ACGTACGTACGTACGTACGAACGT")
	d2, _, hi2 := pad("ACGTACGTACGTACGTACGAACGT")
	first := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	for i := 0; i < 5; i++ {
		again := e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
		if again != first {
			t.Fatalf("call %d: %+v != %+v", i, again, first)
		}
	}
}

func TestNewExtenderPanicsOnBadParams(t *testing.T) {
	ok := Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 10}
	atBound := Params{Match: stats.MaxParam, Mismatch: stats.MaxParam, GapOpen: stats.MaxParam, GapExtend: stats.MaxParam, XDrop: stats.MaxParam}
	for _, p := range []Params{ok, atBound, {Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1, XDrop: 1}} {
		NewExtender(p) // must not panic
	}
	bad := []Params{
		{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 0, XDrop: 10},
		{Match: 0, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 10},
		{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 0},
		{Match: 1, Mismatch: 3, GapOpen: -1, GapExtend: 2, XDrop: 10},
	}
	// One past the bound, a field at a time.
	for k := 0; k < 5; k++ {
		p := ok
		*[]*int32{&p.Match, &p.Mismatch, &p.GapOpen, &p.GapExtend, &p.XDrop}[k] = stats.MaxParam + 1
		bad = append(bad, p)
	}
	for i, p := range bad {
		func() {
			defer func() { recover() }()
			NewExtender(p)
			t.Errorf("params %d (%+v) did not panic", i, p)
		}()
		func() {
			defer func() { recover() }()
			Get(p)
			t.Errorf("Get: params %d (%+v) did not panic", i, p)
		}()
	}
}

// TestExtremeParamsStayExact runs the DP with every parameter at the
// bound: dead-state arithmetic must neither wrap nor leak into a live
// score, so the counts still reconstruct it.
func TestExtremeParamsStayExact(t *testing.T) {
	big := int32(stats.MaxParam)
	for _, prm := range []Params{
		{Match: 1, Mismatch: big, GapOpen: big, GapExtend: big, XDrop: big},
		{Match: 1, Mismatch: big, GapOpen: big, GapExtend: big, XDrop: 1},
		{Match: big, Mismatch: big, GapOpen: 0, GapExtend: 1, XDrop: big},
	} {
		e := NewExtender(prm)
		for seed := int64(0); seed < 40; seed++ {
			d1, d2, _, hi1, _, hi2 := buildPair(seed, uint8(seed*7))
			r := e.ExtendRight(d1, d2, 1, hi1, 1, hi2)
			want := r.Matches*prm.Match - r.Mismatches*prm.Mismatch - r.GapOpens*prm.GapOpen - r.GapBases()*prm.GapExtend
			if r.Score != want || r.Score < 0 {
				t.Fatalf("params %+v seed %d: %+v reconstructs to %d", prm, seed, r, want)
			}
		}
	}
}

// TestExtendTouchesOnlyItsRange hands the extender banks that end where
// the arm's range ends — d[:n:n], anchors at 0 and at n — so a read of
// d[-1] or d[n] (column 0's sequence-2 base, the base under the dead
// cell past the band) panics; and checks the answer is the one the same
// bases give inside a padded buffer, whatever the padding holds.
func TestExtendTouchesOnlyItsRange(t *testing.T) {
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 25})
	for seed := int64(0); seed < 60; seed++ {
		p1, p2, _, hi1, _, hi2 := buildPair(seed, uint8(seed*11))
		n1, n2 := hi1-1, hi2-1
		s1, s2 := p1[1:hi1:hi1], p2[1:hi2:hi2]
		right, rpath := e.ExtendRightPath(s1, s2, 0, n1, 0, n2)
		left, lpath := e.ExtendLeftPath(s1, s2, n1, 0, n2, 0)
		for _, fill := range []byte{0xF0, 0, 3} { // sentinels, then bases that could match
			p1[0], p1[hi1], p2[0], p2[hi2] = fill, fill, fill, fill
			r, rp := e.ExtendRightPath(p1, p2, 1, hi1, 1, hi2)
			l, lp := e.ExtendLeftPath(p1, p2, hi1, 1, hi2, 1)
			if r != right || l != left || string(rp) != string(rpath) || string(lp) != string(lpath) {
				t.Fatalf("seed %d, padding %#x: right %+v vs %+v, left %+v vs %+v", seed, fill, r, right, l, left)
			}
		}
	}
}

// TestExtendAllocations is the allocation gate on step 3: a warmed
// extender runs both arms without allocating, and a path costs exactly
// the slice it returns.
func TestExtendAllocations(t *testing.T) {
	pairs := estPairs(4)
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 25})
	arms := func() {
		for _, p := range pairs {
			e.ExtendLeft(p.d1, p.d2, p.m1, p.lo1, p.m2, p.lo2)
			e.ExtendRight(p.d1, p.d2, p.m1, p.hi1, p.m2, p.hi2)
		}
	}
	paths := func() {
		for _, p := range pairs {
			e.ExtendBothPath(p.d1, p.d2, p.m1, p.m2, p.lo1, p.hi1, p.lo2, p.hi2)
		}
	}
	arms()
	paths()
	if n := testing.AllocsPerRun(5, arms); n != 0 {
		t.Errorf("ExtendLeft+ExtendRight on a warmed extender: %v allocations over %d pairs, want 0", n, len(pairs))
	}
	if n := testing.AllocsPerRun(5, paths); n != float64(len(pairs)) {
		t.Errorf("ExtendBothPath: %v allocations over %d pairs, want one each (the returned path)", n, len(pairs))
	}
}

func TestFromScoring(t *testing.T) {
	p := FromScoring(stats.DefaultScoring, 25)
	if p.Match != 1 || p.Mismatch != 3 || p.GapOpen != 5 || p.GapExtend != 2 || p.XDrop != 25 {
		t.Errorf("FromScoring = %+v", p)
	}
}

func BenchmarkExtendRight1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	letters := []byte("ACGT")
	s1 := make([]byte, 1000)
	for i := range s1 {
		s1[i] = letters[rng.Intn(4)]
	}
	s2 := append([]byte(nil), s1...)
	for i := range s2 {
		if rng.Intn(20) == 0 {
			s2[i] = letters[rng.Intn(4)]
		}
	}
	d1, lo1, hi1 := pad(string(s1))
	d2, _, hi2 := pad(string(s2))
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 25})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExtendRight(d1, d2, lo1, hi1, lo1, hi2)
	}
}
