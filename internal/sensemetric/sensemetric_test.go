package sensemetric

import (
	"math"
	"testing"

	"repro/internal/tabular"
)

func rec(q, s string, qlo, qhi, slo, shi int) tabular.Record {
	return tabular.Record{Query: q, Subject: s, QStart: qlo, QEnd: qhi, SStart: slo, SEnd: shi}
}

func TestIdenticalSetsNoMisses(t *testing.T) {
	set := []tabular.Record{
		rec("q1", "s1", 1, 100, 201, 300),
		rec("q2", "s1", 50, 150, 1, 101),
	}
	r := Compare(set, set, 0)
	if r.SCMiss != 0 || r.BLMiss != 0 {
		t.Errorf("identical sets: %+v", r)
	}
	if r.SCTotal != 2 || r.BLTotal != 2 {
		t.Errorf("totals: %+v", r)
	}
}

func TestSlightlyShiftedStillEquivalent(t *testing.T) {
	a := []tabular.Record{rec("q", "s", 1, 100, 201, 300)}
	b := []tabular.Record{rec("q", "s", 11, 110, 211, 310)} // 90% overlap
	r := Compare(a, b, 0)
	if r.SCMiss != 0 || r.BLMiss != 0 {
		t.Errorf("90%% overlap should be equivalent: %+v", r)
	}
}

func TestInsufficientOverlapIsMiss(t *testing.T) {
	a := []tabular.Record{rec("q", "s", 1, 100, 201, 300)}
	b := []tabular.Record{rec("q", "s", 51, 150, 251, 350)} // 50% overlap
	r := Compare(a, b, 0)
	if r.SCMiss != 1 || r.BLMiss != 1 {
		t.Errorf("50%% overlap must miss both ways: %+v", r)
	}
}

func TestDifferentPairNeverEquivalent(t *testing.T) {
	a := []tabular.Record{rec("q1", "s", 1, 100, 201, 300)}
	b := []tabular.Record{rec("q2", "s", 1, 100, 201, 300)}
	r := Compare(a, b, 0)
	if r.SCMiss != 1 || r.BLMiss != 1 {
		t.Errorf("different queries must not match: %+v", r)
	}
}

func TestShorterContainedAlignmentEquivalent(t *testing.T) {
	// One program reports a longer version of the same alignment; the
	// min-length denominator keeps them equivalent.
	a := []tabular.Record{rec("q", "s", 1, 200, 201, 400)}
	b := []tabular.Record{rec("q", "s", 41, 160, 241, 360)}
	r := Compare(a, b, 0)
	if r.SCMiss != 0 || r.BLMiss != 0 {
		t.Errorf("contained alignment should be equivalent: %+v", r)
	}
}

func TestMinusStrandNormalization(t *testing.T) {
	// Same footprint, one reported with swapped query coordinates
	// (minus strand): orientations differ → not equivalent.
	a := []tabular.Record{rec("q", "s", 100, 1, 201, 300)}
	b := []tabular.Record{rec("q", "s", 1, 100, 201, 300)}
	r := Compare(a, b, 0)
	if r.SCMiss != 1 || r.BLMiss != 1 {
		t.Errorf("opposite strands must not match: %+v", r)
	}
	// Two minus-strand records with the same footprint do match.
	r = Compare(a, a, 0)
	if r.SCMiss != 0 || r.BLMiss != 0 {
		t.Errorf("same minus-strand records: %+v", r)
	}
}

func TestPercentagesMatchPaperFormulas(t *testing.T) {
	sc := []tabular.Record{
		rec("q1", "s", 1, 100, 1, 100),
		rec("q2", "s", 1, 100, 1, 100),
		rec("q3", "s", 1, 100, 1, 100),
		rec("q4", "s", 1, 100, 1, 100),
	}
	bl := []tabular.Record{
		rec("q1", "s", 1, 100, 1, 100),
		rec("q5", "s", 1, 100, 1, 100), // missed by SCORIS
	}
	r := Compare(sc, bl, 0)
	if r.SCMiss != 1 || r.BLMiss != 3 {
		t.Fatalf("misses: %+v", r)
	}
	if got := r.SCORISMissPct(); math.Abs(got-50) > 1e-9 { // 1/2 × 100
		t.Errorf("SCORISmiss%% = %v, want 50", got)
	}
	if got := r.BLASTMissPct(); math.Abs(got-75) > 1e-9 { // 3/4 × 100
		t.Errorf("BLASTmiss%% = %v, want 75", got)
	}
}

func TestEmptySetsZeroPercent(t *testing.T) {
	r := Compare(nil, nil, 0)
	if r.SCORISMissPct() != 0 || r.BLASTMissPct() != 0 {
		t.Errorf("empty sets: %+v", r)
	}
}

func TestThresholdBoundary(t *testing.T) {
	// Exactly 80% overlap: 1..100 vs 21..120 overlap = 80 of 100.
	a := []tabular.Record{rec("q", "s", 1, 100, 1, 100)}
	b := []tabular.Record{rec("q", "s", 21, 120, 21, 120)}
	r := Compare(a, b, 0.8)
	if r.SCMiss != 0 {
		t.Errorf("exactly 80%% must count as equivalent (≥): %+v", r)
	}
	r = Compare(a, b, 0.81)
	if r.SCMiss != 1 {
		t.Errorf("81%% threshold must reject 80%% overlap: %+v", r)
	}
}

func TestMultipleCandidatesOnPair(t *testing.T) {
	// The second candidate matches even though the first does not.
	sc := []tabular.Record{
		rec("q", "s", 500, 600, 500, 600),
		rec("q", "s", 1, 100, 1, 100),
	}
	bl := []tabular.Record{rec("q", "s", 5, 104, 5, 104)}
	r := Compare(sc, bl, 0)
	if r.SCMiss != 0 {
		t.Errorf("second candidate should match: %+v", r)
	}
}

func TestIndexHas(t *testing.T) {
	set := []tabular.Record{rec("q", "s", 1, 100, 1, 100)}
	ix := NewIndex(set)
	probe := rec("q", "s", 3, 102, 3, 102)
	if !ix.Has(&probe, 0.8) {
		t.Error("Has should find the shifted probe")
	}
	miss := rec("q", "other", 3, 102, 3, 102)
	if ix.Has(&miss, 0.8) {
		t.Error("Has matched the wrong subject")
	}
}

func TestOverlapOnOneAxisOnlyIsMiss(t *testing.T) {
	// Query spans overlap fully, subject spans are disjoint (e.g. a
	// repeat matched at two different subject locations).
	a := []tabular.Record{rec("q", "s", 1, 100, 1, 100)}
	b := []tabular.Record{rec("q", "s", 1, 100, 1001, 1100)}
	r := Compare(a, b, 0)
	if r.SCMiss != 1 || r.BLMiss != 1 {
		t.Errorf("subject-disjoint alignments must not match: %+v", r)
	}
}
