package gapped

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildPair derives a mutated sequence pair from fuzz input.
func buildPair(seed int64, nRaw uint8) (d1, d2 []byte, lo1, hi1, lo2, hi2 int32) {
	rng := rand.New(rand.NewSource(seed))
	n := int(nRaw)%120 + 5
	s1 := make([]byte, n)
	for i := range s1 {
		s1[i] = byte(rng.Intn(4))
	}
	var s2 []byte
	for _, c := range s1 {
		switch rng.Intn(10) {
		case 0:
			s2 = append(s2, byte(rng.Intn(4)))
		case 1:
			s2 = append(s2, c, byte(rng.Intn(4)))
		case 2:
		default:
			s2 = append(s2, c)
		}
	}
	if len(s2) == 0 {
		s2 = []byte{0}
	}
	d1 = append(append([]byte{0xF0}, s1...), 0xF0)
	d2 = append(append([]byte{0xF0}, s2...), 0xF0)
	return d1, d2, 1, int32(len(d1) - 1), 1, int32(len(d2) - 1)
}

// Property: the optimal-path statistics always reconstruct the score.
func TestQuickStatsReconstructScore(t *testing.T) {
	prm := Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 30}
	e := NewExtender(prm)
	f := func(seed int64, nRaw uint8) bool {
		d1, d2, lo1, hi1, lo2, hi2 := buildPair(seed, nRaw)
		_ = lo1
		_ = lo2
		r := e.ExtendRight(d1, d2, 1, hi1, 1, hi2)
		recomputed := r.Matches*prm.Match - r.Mismatches*prm.Mismatch -
			r.GapOpens*prm.GapOpen - r.GapBases()*prm.GapExtend
		return recomputed == r.Score &&
			r.Len1 == r.Matches+r.Mismatches+r.GapBases1 &&
			r.Len2 == r.Matches+r.Mismatches+r.GapBases2 &&
			r.Score >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: score never decreases when X-drop grows (a larger search
// region can only find an equal or better maximum).
func TestQuickXDropMonotone(t *testing.T) {
	small := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 6})
	big := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 60})
	f := func(seed int64, nRaw uint8) bool {
		d1, d2, _, hi1, _, hi2 := buildPair(seed, nRaw)
		rs := small.ExtendRight(d1, d2, 1, hi1, 1, hi2)
		rb := big.ExtendRight(d1, d2, 1, hi1, 1, hi2)
		return rb.Score >= rs.Score
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the collected edit path is consistent with the result
// statistics — op counts equal the stat counters.
func TestQuickPathMatchesStats(t *testing.T) {
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 30})
	f := func(seed int64, nRaw uint8) bool {
		d1, d2, _, hi1, _, hi2 := buildPair(seed, nRaw)
		r, ops := e.ExtendRightPath(d1, d2, 1, hi1, 1, hi2)
		var pairs, g1, g2 int32
		for _, op := range ops {
			switch op {
			case OpPair:
				pairs++
			case OpGap1:
				g1++
			case OpGap2:
				g2++
			default:
				return false
			}
		}
		return pairs == r.Matches+r.Mismatches && g1 == r.GapBases1 && g2 == r.GapBases2 &&
			int32(len(ops)) == r.AlignLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: Add is commutative and totals add up.
func TestQuickAddCommutative(t *testing.T) {
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 30})
	f := func(seedA, seedB int64, nA, nB uint8) bool {
		d1, d2, _, hi1, _, hi2 := buildPair(seedA, nA)
		e1, f2, _, hj1, _, hj2 := buildPair(seedB, nB)
		ra := e.ExtendRight(d1, d2, 1, hi1, 1, hi2)
		rb := e.ExtendRight(e1, f2, 1, hj1, 1, hj2)
		ab := ra.Add(rb)
		ba := rb.Add(ra)
		return ab == ba && ab.Score == ra.Score+rb.Score && ab.AlignLen() == ra.AlignLen()+rb.AlignLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: left extension on a reversed pair equals right extension on
// the forward pair (mirror symmetry of the DP).
func TestQuickLeftRightMirror(t *testing.T) {
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 40})
	rev := func(s []byte) []byte {
		out := make([]byte, len(s))
		for i, c := range s {
			out[len(s)-1-i] = c
		}
		return out
	}
	f := func(seed int64, nRaw uint8) bool {
		d1, d2, _, hi1, _, hi2 := buildPair(seed, nRaw)
		right := e.ExtendRight(d1, d2, 1, hi1, 1, hi2)
		r1 := append(append([]byte{0xF0}, rev(d1[1:hi1])...), 0xF0)
		r2 := append(append([]byte{0xF0}, rev(d2[1:hi2])...), 0xF0)
		left := e.ExtendLeft(r1, r2, int32(len(r1)-1), 1, int32(len(r2)-1), 1)
		return left.Score == right.Score && left.Matches == right.Matches &&
			left.GapOpens == right.GapOpens
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzExtend checks, on arbitrary sequences, anchors and parameters,
// what every extension must satisfy whatever the band did: the counts
// reconstruct the score, the lengths are the counts', the edit path
// replayed over the two sequences gives the counts back, and the path
// costs nothing the plain call would not report.
func FuzzExtend(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCA"), []byte("ACGTACTTTGACCA"), uint16(7), uint16(7), uint8(1))
	f.Add([]byte("AAAAAAAAAA"), []byte("AAAAANAAAA"), uint16(0), uint16(0), uint8(3))
	f.Add([]byte("A"), []byte("C"), uint16(1), uint16(1), uint8(5))
	f.Fuzz(func(t *testing.T, s1, s2 []byte, a1, a2 uint16, set uint8) {
		if len(s1) > 2000 || len(s2) > 2000 {
			t.Skip()
		}
		code := func(s []byte) []byte {
			d := make([]byte, len(s))
			for i, b := range s {
				if d[i] = b & 7; d[i] >= 4 {
					d[i] = 0xEE // a non-base now and then
				}
			}
			return d[:len(d):len(d)]
		}
		d1, d2 := code(s1), code(s2)
		n1, n2 := int32(len(d1)), int32(len(d2))
		m1, m2 := int32(a1)%(n1+1), int32(a2)%(n2+1)
		prm := vectorParams[int(set)%len(vectorParams)]
		e := NewExtender(prm)
		r, ops := e.ExtendBothPath(d1, d2, m1, m2, 0, n1, 0, n2)
		if plain := e.ExtendBoth(d1, d2, m1, m2, 0, n1, 0, n2); plain != r {
			t.Fatalf("ExtendBoth %+v, ExtendBothPath %+v", plain, r)
		}
		left := e.ExtendLeft(d1, d2, m1, 0, m2, 0)
		if score := r.Matches*prm.Match - r.Mismatches*prm.Mismatch - r.GapOpens*prm.GapOpen - r.GapBases()*prm.GapExtend; score != r.Score || r.Score < 0 {
			t.Fatalf("%+v reconstructs to %d", r, score)
		}
		if r.Len1 != r.Matches+r.Mismatches+r.GapBases1 || r.Len2 != r.Matches+r.Mismatches+r.GapBases2 || int32(len(ops)) != r.AlignLen() {
			t.Fatalf("%+v: lengths disagree with counts (path %d)", r, len(ops))
		}
		// Replay the path from the left arm's far end; a gap run opens
		// once, and again if it continues across the anchor.
		var got Result
		i, j, prev := m1-left.Len1, m2-left.Len2, byte(0)
		for k, op := range ops {
			if k == int(left.AlignLen()) {
				prev = 0
			}
			switch op {
			case OpPair:
				if d1[i] == d2[j] && d1[i] < 4 {
					got.Matches++
				} else {
					got.Mismatches++
				}
				i, j = i+1, j+1
			case OpGap1:
				got.GapBases1, i = got.GapBases1+1, i+1
			case OpGap2:
				got.GapBases2, j = got.GapBases2+1, j+1
			default:
				t.Fatalf("path holds %q", op)
			}
			if op != OpPair && op != prev {
				got.GapOpens++
			}
			prev = op
		}
		if got.Matches != r.Matches || got.Mismatches != r.Mismatches || got.GapBases1 != r.GapBases1 ||
			got.GapBases2 != r.GapBases2 || got.GapOpens != r.GapOpens || i != m1+r.Len1-left.Len1 || j != m2+r.Len2-left.Len2 {
			t.Fatalf("path %q replays to %+v ending (%d,%d), result %+v", ops, got, i, j, r)
		}
	})
}
