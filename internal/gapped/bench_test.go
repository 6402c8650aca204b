package gapped

import (
	"math/rand"
	"testing"
)

// estPair is one EST-shaped extension problem: two reads of a common
// transcript, anchored mid-read.
type estPair struct {
	d1, d2                     []byte
	m1, m2, lo1, hi1, lo2, hi2 int32
}

// estPairs builds n pairs of 300–800 bases at ≈ 93 % identity (5 %
// substitutions, 2 % indels), the shape step 3 sees on EST banks.
func estPairs(n int) []estPair {
	rng := rand.New(rand.NewSource(22))
	pairs := make([]estPair, n)
	for k := range pairs {
		s1 := make([]byte, 300+rng.Intn(501))
		for i := range s1 {
			s1[i] = byte(rng.Intn(4))
		}
		s2 := make([]byte, 0, len(s1)+16)
		m2 := 0
		for i, b := range s1 {
			if i == len(s1)/2 {
				m2 = len(s2)
			}
			switch r := rng.Intn(100); {
			case r < 1:
			case r < 2:
				s2 = append(s2, b, byte(rng.Intn(4)))
			case r < 7:
				s2 = append(s2, byte(rng.Intn(4)))
			default:
				s2 = append(s2, b)
			}
		}
		pairs[k] = estPair{
			d1: append(append([]byte{0xF0}, s1...), 0xF0),
			d2: append(append([]byte{0xF0}, s2...), 0xF0),
			m1: int32(len(s1)/2) + 1, m2: int32(m2) + 1,
			lo1: 1, hi1: int32(len(s1)) + 1, lo2: 1, hi2: int32(len(s2)) + 1,
		}
	}
	return pairs
}

var benchSink Result

// BenchmarkExtendBoth_EST is the step-3 kernel on its own: one op is
// ExtendBoth over every pair of the set; ns/cell divides by the band
// cells of both arms (an arm leaves one traceback byte per band cell).
func BenchmarkExtendBoth_EST(b *testing.B) {
	pairs := estPairs(64)
	e := NewExtender(Params{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 25})
	cells := 0
	for _, p := range pairs {
		e.ExtendLeft(p.d1, p.d2, p.m1, p.lo1, p.m2, p.lo2)
		cells += len(e.tb)
		e.ExtendRight(p.d1, p.d2, p.m1, p.hi1, p.m2, p.hi2)
		cells += len(e.tb)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			benchSink = e.ExtendBoth(p.d1, p.d2, p.m1, p.m2, p.lo1, p.hi1, p.lo2, p.hi2)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pairs)), "ns/pair")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}
