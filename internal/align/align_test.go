package align

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/hsp"
)

func TestIdentity(t *testing.T) {
	a := Alignment{Matches: 90, Length: 100}
	if a.Identity() != 0.9 {
		t.Errorf("Identity = %v", a.Identity())
	}
	var zero Alignment
	if zero.Identity() != 0 {
		t.Errorf("zero alignment identity = %v", zero.Identity())
	}
}

func TestDiagBounds(t *testing.T) {
	a := Alignment{S1: 10, E1: 20, S2: 100, E2: 115}
	if a.MinDiag() != 10-114 {
		t.Errorf("MinDiag = %d", a.MinDiag())
	}
	if a.MaxDiag() != 19-100 {
		t.Errorf("MaxDiag = %d", a.MaxDiag())
	}
	// Every cell diagonal inside the box is within [MinDiag, MaxDiag].
	for i := a.S1; i < a.E1; i++ {
		for j := a.S2; j < a.E2; j++ {
			d := i - j
			if d < a.MinDiag() || d > a.MaxDiag() {
				t.Fatalf("cell diag %d outside [%d,%d]", d, a.MinDiag(), a.MaxDiag())
			}
		}
	}
}

func TestContainsHSP(t *testing.T) {
	a := Alignment{S1: 10, E1: 50, S2: 100, E2: 140}
	in := hsp.HSP{S1: 15, E1: 30, S2: 105, E2: 120}
	out := hsp.HSP{S1: 5, E1: 30, S2: 105, E2: 130}
	if !a.ContainsHSP(in) {
		t.Error("inner HSP not contained")
	}
	if a.ContainsHSP(out) {
		t.Error("outer HSP reported contained")
	}
}

func TestTAlignCoversAscendingDiagonals(t *testing.T) {
	var ta TAlign
	ta.Add(Alignment{S1: 100, E1: 200, S2: 100, E2: 200}) // diag ~0
	ta.Add(Alignment{S1: 500, E1: 600, S2: 100, E2: 200}) // diag ~400

	// HSP inside the first alignment.
	if !ta.Covered(hsp.HSP{S1: 120, E1: 150, S2: 120, E2: 150}) {
		t.Error("HSP inside first alignment not covered")
	}
	// HSP on a far diagonal not covered.
	if ta.Covered(hsp.HSP{S1: 300, E1: 330, S2: 100, E2: 130}) {
		t.Error("uncovered HSP reported covered")
	}
	// HSP inside the second alignment, after the diagonal advanced.
	if !ta.Covered(hsp.HSP{S1: 520, E1: 560, S2: 120, E2: 160}) {
		t.Error("HSP inside second alignment not covered")
	}
	if n := len(ta.All()); n != 2 {
		t.Errorf("len(All()) = %d", n)
	}
}

func TestTAlignPruningIsSafe(t *testing.T) {
	// After pruning (query at high diagonal), alignments with smaller
	// MaxDiag must no longer be consulted — but equal-diag queries must
	// still see live ones. Pruning must never cause a false negative
	// for ascending queries.
	var ta TAlign
	ta.Add(Alignment{S1: 0, E1: 100, S2: 0, E2: 100})     // diags [-99,99]
	ta.Add(Alignment{S1: 1000, E1: 1100, S2: 0, E2: 100}) // diags [901,1099]

	if !ta.Covered(hsp.HSP{S1: 10, E1: 20, S2: 10, E2: 20}) { // diag 0
		t.Fatal("first query should be covered")
	}
	if !ta.Covered(hsp.HSP{S1: 1010, E1: 1020, S2: 10, E2: 20}) { // diag 1000
		t.Fatal("second query should be covered")
	}
	// The first alignment is now pruned; a repeat of the low query would
	// be a protocol violation (descending diag), so we don't test it.
	if len(ta.active) != 1 {
		t.Errorf("active set = %d entries, want 1 after pruning", len(ta.active))
	}
}

func TestTAlignRandomizedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var ta TAlign
		var all []Alignment
		// Generate random alignments in ascending diagonal order, and
		// interleave queries also ascending.
		type query struct {
			h    hsp.HSP
			want bool
		}
		var queries []query
		diag := int32(-200)
		for step := 0; step < 40; step++ {
			diag += int32(rng.Intn(30))
			if rng.Intn(2) == 0 {
				s1 := diag + 300
				s2 := int32(300 - rng.Intn(20))
				a := Alignment{S1: s1, E1: s1 + int32(20+rng.Intn(80)), S2: s2, E2: s2 + int32(20+rng.Intn(80))}
				ta.Add(a)
				all = append(all, a)
			} else {
				s1 := diag + 300
				s2 := int32(300)
				h := hsp.HSP{S1: s1, E1: s1 + int32(5+rng.Intn(30)), S2: s2, E2: s2 + int32(5+rng.Intn(30))}
				h.E2 = h.S2 + (h.E1 - h.S1)
				want := false
				for i := range all {
					if all[i].ContainsHSP(h) {
						want = true
						break
					}
				}
				got := ta.Covered(h)
				queries = append(queries, query{h, want})
				if got != want {
					t.Fatalf("trial %d step %d: Covered(%+v) = %v, brute force %v",
						trial, step, h, got, want)
				}
			}
		}
		_ = queries
	}
}

func TestDedupRemovesExactAndContained(t *testing.T) {
	big := Alignment{Seq1: 0, Seq2: 0, S1: 0, E1: 100, S2: 0, E2: 100, Score: 80}
	small := Alignment{Seq1: 0, Seq2: 0, S1: 10, E1: 50, S2: 10, E2: 50, Score: 30}
	otherPair := Alignment{Seq1: 1, Seq2: 0, S1: 10, E1: 50, S2: 10, E2: 50, Score: 30}
	out := Dedup([]Alignment{big, small, big, otherPair})
	if len(out) != 2 {
		t.Fatalf("Dedup kept %d alignments: %+v", len(out), out)
	}
	foundBig, foundOther := false, false
	for _, a := range out {
		if a == big {
			foundBig = true
		}
		if a == otherPair {
			foundOther = true
		}
	}
	if !foundBig || !foundOther {
		t.Errorf("Dedup kept wrong set: %+v", out)
	}
}

func TestDedupKeepsHigherScoreWhenContainedScoresBetter(t *testing.T) {
	// A contained alignment with a HIGHER score must survive.
	outer := Alignment{S1: 0, E1: 100, S2: 0, E2: 100, Score: 10}
	inner := Alignment{S1: 10, E1: 50, S2: 10, E2: 50, Score: 40}
	out := Dedup([]Alignment{outer, inner})
	if len(out) != 2 {
		t.Fatalf("Dedup dropped a higher-scoring contained alignment: %+v", out)
	}
}

func TestDedupEmptyAndSingle(t *testing.T) {
	if got := Dedup(nil); len(got) != 0 {
		t.Errorf("Dedup(nil) = %v", got)
	}
	one := []Alignment{{Score: 5}}
	if got := Dedup(one); len(got) != 1 {
		t.Errorf("Dedup single = %v", got)
	}
}

func TestSortForDisplay(t *testing.T) {
	// Query-major: all of query 0 before any of query 1, regardless of
	// e-value; within a query, ascending e-value then descending score.
	as := []Alignment{
		{Seq2: 1, EValue: 1e-12, Score: 99},
		{Seq2: 0, EValue: 1e-3, Score: 50},
		{Seq2: 0, EValue: 1e-9, Score: 40},
		{Seq2: 0, EValue: 1e-3, Score: 80},
	}
	SortForDisplay(as)
	if as[3].Seq2 != 1 {
		t.Errorf("query grouping broken (better e-value must not jump the query order): %+v", as)
	}
	if as[0].EValue != 1e-9 {
		t.Errorf("best e-value of query 0 not first: %+v", as)
	}
	if as[1].Score != 80 || as[2].Score != 50 {
		t.Errorf("equal e-values not ordered by score: %+v", as)
	}
	if !sort.SliceIsSorted(as, func(i, j int) bool {
		if as[i].Seq2 != as[j].Seq2 {
			return as[i].Seq2 < as[j].Seq2
		}
		return as[i].EValue < as[j].EValue || (as[i].EValue == as[j].EValue && as[i].Score > as[j].Score)
	}) {
		t.Error("not sorted")
	}
}

// TestPerGroupEqualsWholeTable is the property the engines' streaming
// rests on: on random alignments spread over several (Seq1, Seq2) pairs
// and both strands, Dedup per strand then SortForDisplay over the whole
// table equals the concatenation of the same pass run on each Seq2
// group alone, whatever order the table arrived in. Small coordinates
// and few scores make duplicate boxes, containment and display-key ties
// on (Seq2, EValue, Score, Seq1, S1, S2) common.
func TestPerGroupEqualsWholeTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pass := func(plus, minus []Alignment) []Alignment {
		out := append(Dedup(plus), Dedup(minus)...)
		SortForDisplay(out)
		return out
	}
	const seqs2 = 4
	for trial := 0; trial < 300; trial++ {
		var strands [2][]Alignment
		for i, n := 0, 1+rng.Intn(80); i < n; i++ {
			minus := rng.Intn(2)
			a := Alignment{
				Seq1: rng.Int31n(3), Seq2: rng.Int31n(seqs2),
				S1: rng.Int31n(12), S2: rng.Int31n(12),
				Score:   1 + rng.Int31n(4),
				Anchor1: rng.Int31n(3),
				Minus:   minus == 1,
			}
			a.E1, a.E2 = a.S1+1+rng.Int31n(8), a.S2+1+rng.Int31n(8)
			a.EValue = float64(10 - a.Score)
			a.Length, a.Matches = a.E1-a.S1, a.Score
			strands[minus] = append(strands[minus], a)
		}
		for _, s := range strands {
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		}
		whole := pass(strands[0], strands[1])

		var grouped []Alignment
		for s2 := int32(0); s2 < seqs2; s2++ {
			var g [2][]Alignment
			for k, s := range strands {
				for _, a := range s {
					if a.Seq2 == s2 {
						g[k] = append(g[k], a)
					}
				}
			}
			grouped = append(grouped, pass(g[0], g[1])...)
		}
		if !slices.Equal(whole, grouped) {
			t.Fatalf("trial %d: whole-table pass differs from the per-group passes:\nwhole   %+v\ngrouped %+v", trial, whole, grouped)
		}
	}
}
