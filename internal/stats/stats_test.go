package stats

import (
	"math"
	"sync"
	"testing"
)

// Published NCBI blast_stat.c ungapped values for uniform-composition
// DNA scoring systems. Our series computation must reproduce them.
func TestKarlinAltschulMatchesNCBI(t *testing.T) {
	cases := []struct {
		match, mismatch   int
		lambda, k, h, tol float64
	}{
		{1, 3, 1.374, 0.711, 1.31, 0.002},
		{1, 2, 1.33, 0.621, 1.12, 0.005},
		{1, 4, 1.383, 0.738, 1.36, 0.003},
		{1, 5, 1.39, 0.747, 1.38, 0.005},
	}
	for _, c := range cases {
		ka, err := Ungapped(c.match, c.mismatch)
		if err != nil {
			t.Fatalf("+%d/-%d: %v", c.match, c.mismatch, err)
		}
		if math.Abs(ka.Lambda-c.lambda) > c.tol {
			t.Errorf("+%d/-%d lambda = %.4f, want %.4f", c.match, c.mismatch, ka.Lambda, c.lambda)
		}
		if math.Abs(ka.K-c.k) > c.tol {
			t.Errorf("+%d/-%d K = %.4f, want %.4f", c.match, c.mismatch, ka.K, c.k)
		}
		if math.Abs(ka.H-c.h) > 0.01 {
			t.Errorf("+%d/-%d H = %.4f, want %.4f", c.match, c.mismatch, ka.H, c.h)
		}
	}
}

func TestLambdaSolvesDefiningEquation(t *testing.T) {
	for _, pr := range [][2]int{{1, 3}, {1, 2}, {2, 3}, {2, 5}, {3, 4}} {
		ka, err := Ungapped(pr[0], pr[1])
		if err != nil {
			t.Fatalf("+%d/-%d: %v", pr[0], pr[1], err)
		}
		got := 0.25*math.Exp(ka.Lambda*float64(pr[0])) + 0.75*math.Exp(-ka.Lambda*float64(pr[1]))
		if math.Abs(got-1) > 1e-9 {
			t.Errorf("+%d/-%d: sum p·e^{λs} = %.12f, want 1", pr[0], pr[1], got)
		}
	}
}

func TestUngappedRejectsNonNegativeDrift(t *testing.T) {
	// +3/-1 has expected score 3/4 - 3/4 = 0: invalid.
	if _, err := Ungapped(3, 1); err == nil {
		t.Error("expected error for +3/-1")
	}
	if _, err := Ungapped(4, 1); err == nil {
		t.Error("expected error for +4/-1")
	}
	if _, err := Ungapped(0, 3); err == nil {
		t.Error("expected error for zero match")
	}
	if _, err := Ungapped(1, -1); err == nil {
		t.Error("expected error for negative mismatch")
	}
}

func TestMustUngappedPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustUngapped(4,1) did not panic")
		}
	}()
	MustUngapped(4, 1)
}

func TestEValueScalesWithSearchSpace(t *testing.T) {
	ka := MustUngapped(1, 3)
	e1 := ka.EValue(30, 1e6, 1e3)
	e2 := ka.EValue(30, 2e6, 1e3)
	if math.Abs(e2/e1-2) > 1e-9 {
		t.Errorf("E-value not linear in m: %v vs %v", e1, e2)
	}
	e3 := ka.EValue(30, 1e6, 2e3)
	if math.Abs(e3/e1-2) > 1e-9 {
		t.Errorf("E-value not linear in n: %v vs %v", e1, e3)
	}
}

func TestEValueDecreasesWithScore(t *testing.T) {
	ka := MustUngapped(1, 3)
	prev := math.Inf(1)
	for s := 10; s <= 100; s += 10 {
		e := ka.EValue(s, 1e6, 1e6)
		if e >= prev {
			t.Fatalf("E-value not decreasing at score %d: %v >= %v", s, e, prev)
		}
		prev = e
	}
}

func TestBitScoreLinear(t *testing.T) {
	ka := MustUngapped(1, 3)
	b30 := ka.BitScore(30)
	b60 := ka.BitScore(60)
	slope := (b60 - b30) / 30
	want := ka.Lambda / math.Ln2
	if math.Abs(slope-want) > 1e-9 {
		t.Errorf("bit score slope = %v, want λ/ln2 = %v", slope, want)
	}
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring.Validate(); err != nil {
		t.Errorf("default scoring invalid: %v", err)
	}
	bad := []Scoring{
		{Match: 0, Mismatch: 3, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: 0, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: 3, GapOpen: -1, GapExtend: 2},
		{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 0},
		{Match: 3, Mismatch: 1, GapOpen: 5, GapExtend: 2}, // non-negative drift
		// One past the bound, a field at a time.
		{Match: MaxParam + 1, Mismatch: MaxParam, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: MaxParam + 1, GapOpen: 5, GapExtend: 2},
		{Match: 1, Mismatch: 3, GapOpen: MaxParam + 1, GapExtend: 2},
		{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: MaxParam + 1},
		{Match: 1, Mismatch: 2000000000, GapOpen: 5, GapExtend: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, s)
		}
	}
	atBound := Scoring{Match: MaxParam, Mismatch: MaxParam, GapOpen: MaxParam, GapExtend: MaxParam}
	if err := atBound.Validate(); err != nil {
		t.Errorf("scoring at the bound rejected: %v", err)
	}
}

// TestUngappedAtTheBound: the K series costs the same at the largest
// scores Validate lets through as at +1/−3 — a table of at most 301
// probabilities, not one sized by the penalty — including the slowest
// series there is, a drift just below zero.
func TestUngappedAtTheBound(t *testing.T) {
	for _, p := range [][2]int{{1, MaxParam}, {MaxParam, MaxParam}, {MaxParam, MaxParam/3 + 1}} {
		var ka KarlinAltschul
		allocs := testing.AllocsPerRun(1, func() {
			lambda := solveLambda(p[0], p[1])
			h := entropyH(lambda, p[0], p[1])
			ka = KarlinAltschul{Lambda: lambda, H: h, K: karlinK(lambda, h, p[0], p[1])}
		})
		if !(ka.Lambda > 0 && ka.K > 0 && !math.IsInf(ka.K, 0) && ka.H > 0) {
			t.Errorf("+%d/−%d: %+v", p[0], p[1], ka)
		}
		if allocs > 2 {
			t.Errorf("+%d/−%d: %v allocations", p[0], p[1], allocs)
		}
	}
}

func TestCacheIsConcurrencySafe(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pairs := [][2]int{{1, 3}, {1, 2}, {2, 3}, {2, 5}}
			p := pairs[i%len(pairs)]
			ka, err := Ungapped(p[0], p[1])
			if err != nil || ka.Lambda <= 0 {
				t.Errorf("concurrent Ungapped failed: %v %v", ka, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestEValueConsistentWithBitScore(t *testing.T) {
	// E = m·n·2^{-bit} must agree with the raw formula.
	ka := MustUngapped(1, 3)
	m, n := 1_000_000, 5_000
	for _, s := range []int{20, 35, 50} {
		eRaw := ka.EValue(s, m, n)
		eBit := float64(m) * float64(n) * math.Pow(2, -ka.BitScore(s))
		if math.Abs(eRaw-eBit)/eRaw > 1e-9 {
			t.Errorf("score %d: raw %g vs bit %g", s, eRaw, eBit)
		}
	}
}
