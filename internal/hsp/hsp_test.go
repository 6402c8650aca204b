package hsp

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/seed"
)

func mkBank(name string, seqs ...string) *bank.Bank {
	recs := make([]*fasta.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fasta.Record{ID: name + string(rune('0'+i)), Seq: []byte(s)}
	}
	return bank.New(name, recs)
}

// runStep2 is a miniature step 2: enumerate all seeds in ascending code
// order and extend every hit pair. It returns all HSPs (no score
// threshold) and the extension stats.
func runStep2(b1, b2 *bank.Bank, w int, xdrop int32, ordered bool) ([]HSP, Stats) {
	ix1 := &index.Build(b1, index.Options{W: w}).Parts()[0]
	ix2 := &index.Build(b2, index.Options{W: w}).Parts()[0]
	ext := Extender{W: w, Match: 1, Mismatch: 3, XDrop: xdrop, Ordered: ordered}
	var st Stats
	var out []HSP
	for _, code := range ix1.Directory() {
		for _, p1 := range ix1.Occ(code) {
			for _, p2 := range ix2.Occ(code) {
				if h, ok := ext.Extend(b1.Data, b2.Data, p1, p2, code, &st); ok {
					out = append(out, h)
				}
			}
		}
	}
	return out, st
}

func randomSeqs(rng *rand.Rand, n, minLen, maxLen int) []string {
	letters := []byte("ACGT")
	out := make([]string, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		b := make([]byte, l)
		for j := range b {
			b[j] = letters[rng.Intn(4)]
		}
		out[i] = string(b)
	}
	return out
}

// mutate returns a copy of s with each base substituted with prob pSub.
func mutate(rng *rand.Rand, s string, pSub float64) string {
	letters := []byte("ACGT")
	b := []byte(s)
	for i := range b {
		if rng.Float64() < pSub {
			b[i] = letters[rng.Intn(4)]
		}
	}
	return string(b)
}

func TestExtendExactDuplicateSequences(t *testing.T) {
	s := "ACGTTGCAGGTACCTTACGA"
	b1 := mkBank("x", s)
	b2 := mkBank("y", s)
	const w = 5
	hs, _ := runStep2(b1, b2, w, 1<<30, true)
	if len(hs) != 1 {
		t.Fatalf("identical sequences must yield exactly 1 HSP, got %d: %v", len(hs), hs)
	}
	h := hs[0]
	if h.Len() != int32(len(s)) {
		t.Errorf("HSP length %d, want %d", h.Len(), len(s))
	}
	if h.Score != int32(len(s)) {
		t.Errorf("HSP score %d, want %d", h.Score, len(s))
	}
	if h.Diag() != hs[0].S1-hs[0].S2 {
		t.Error("Diag inconsistent")
	}
}

// The paper's worked example (§2.2): an alignment containing two seeds
// must be generated once, from the lower seed, and the extension from
// the higher seed must abort.
func TestPaperWorkedExample(t *testing.T) {
	top := "ATATGATGTGCAACTGTAATTGCTCAGATTCTATG"
	bot := "ATATGATGTGCAACTGTAATTGCTCAGGTTCTCTG"
	b1 := mkBank("x", top)
	b2 := mkBank("y", bot)
	const w = 8
	hs, st := runStep2(b1, b2, w, 1<<30, true)
	if len(hs) != 1 {
		t.Fatalf("want exactly 1 HSP, got %d: %+v", len(hs), hs)
	}
	if st.Aborted == 0 {
		t.Error("expected at least one ordered-rule abort (the AATTGCTC anchor)")
	}
	// The sequences share a 27-base prefix, then mismatch at offset 27,
	// match offsets 28-31, mismatch at 32, match 33-34. With +1/-3 the
	// max-score trim is [0,32): 27 - 3 + 4 = 28.
	h := hs[0]
	if h.Len() != 32 || h.Score != 28 {
		t.Errorf("HSP = %+v (len %d score %d), want len 32 score 28", h, h.Len(), h.Score)
	}
}

// diagKey identifies the independent unit of the ordered-rule guarantee:
// a diagonal within one (sequence, sequence) pair.
type diagKey struct {
	diag   int32
	s1, s2 int32
}

func keyOf(b1, b2 *bank.Bank, h HSP) diagKey {
	return diagKey{h.Diag(), b1.SeqAt(h.S1), b2.SeqAt(h.S2)}
}

// The exact guarantees of the ordered-seed rule (provable from the
// leftmost-minimal-anchor argument):
//
//  1. ordered output ⊆ naive output (a surviving extension is identical
//     to the naive extension from the same anchor);
//  2. no duplicates, ever;
//  3. a (diagonal, seq-pair) has an ordered HSP iff it has a naive HSP
//     (the per-diagonal leftmost occurrence of the minimal seed can
//     never abort: every embedded seed it meets is on the same diagonal
//     and therefore has a higher code, or lies to its right);
//  4. with an effectively infinite X-drop every anchor explores the
//     whole diagonal, so exactly ONE ordered HSP survives per
//     (diagonal, seq-pair).
func TestOrderedRuleExactProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		w := 4 + rng.Intn(3)
		seqs1 := randomSeqs(rng, 4, 40, 120)
		seqs2 := randomSeqs(rng, 2, 40, 120)
		for _, s := range seqs1[:2] {
			seqs2 = append(seqs2, mutate(rng, s, 0.08))
		}
		b1 := mkBank("x", seqs1...)
		b2 := mkBank("y", seqs2...)

		ordered, stO := runStep2(b1, b2, w, 1<<30, true)
		naive, _ := runStep2(b1, b2, w, 1<<30, false)

		naiveSet := map[HSP]bool{}
		for _, h := range naive {
			naiveSet[h] = true
		}
		seen := map[HSP]bool{}
		orderedPerDiag := map[diagKey]int{}
		for _, h := range ordered {
			if !naiveSet[h] {
				t.Fatalf("trial %d: ordered HSP %+v not in naive output", trial, h)
			}
			if seen[h] {
				t.Fatalf("trial %d: duplicate HSP %+v", trial, h)
			}
			seen[h] = true
			orderedPerDiag[keyOf(b1, b2, h)]++
		}
		naivePerDiag := map[diagKey]int{}
		for _, h := range naive {
			naivePerDiag[keyOf(b1, b2, h)]++
		}
		for k := range naivePerDiag {
			if orderedPerDiag[k] == 0 {
				t.Fatalf("trial %d: diagonal %+v has naive HSPs but no ordered HSP", trial, k)
			}
		}
		for k, n := range orderedPerDiag {
			if naivePerDiag[k] == 0 {
				t.Fatalf("trial %d: diagonal %+v has ordered HSPs but no naive HSP", trial, k)
			}
			if n != 1 {
				t.Fatalf("trial %d: diagonal %+v has %d ordered HSPs with infinite xdrop, want 1", trial, k, n)
			}
		}
		if stO.Emitted != int64(len(ordered)) {
			t.Fatalf("stats emitted %d != %d", stO.Emitted, len(ordered))
		}
	}
}

func TestOrderedNeverEmitsDuplicatesFiniteXdrop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		seqs1 := randomSeqs(rng, 3, 60, 150)
		seqs2 := []string{mutate(rng, seqs1[0], 0.15), mutate(rng, seqs1[1], 0.05)}
		b1 := mkBank("x", seqs1...)
		b2 := mkBank("y", seqs2...)
		ordered, _ := runStep2(b1, b2, 5, 12, true)
		seen := map[HSP]bool{}
		for _, h := range ordered {
			if seen[h] {
				t.Fatalf("trial %d: duplicate HSP %+v with finite xdrop", trial, h)
			}
			seen[h] = true
		}
	}
}

// With finite X-drop, exploration can stop before reaching a lower
// seed, so several ordered HSPs per diagonal are legitimate — but the
// subset, uniqueness and per-diagonal-existence properties must still
// hold exactly.
func TestOrderedPropertiesFiniteXdrop(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 15; trial++ {
		seqs1 := randomSeqs(rng, 3, 60, 140)
		seqs2 := []string{mutate(rng, seqs1[0], 0.1), mutate(rng, seqs1[2], 0.06)}
		b1 := mkBank("x", seqs1...)
		b2 := mkBank("y", seqs2...)
		const w, xd = 5, 15
		ordered, _ := runStep2(b1, b2, w, xd, true)
		naive, _ := runStep2(b1, b2, w, xd, false)
		naiveSet := map[HSP]bool{}
		naiveDiags := map[diagKey]bool{}
		for _, h := range naive {
			naiveSet[h] = true
			naiveDiags[keyOf(b1, b2, h)] = true
		}
		orderedDiags := map[diagKey]bool{}
		seen := map[HSP]bool{}
		for _, o := range ordered {
			if !naiveSet[o] {
				t.Fatalf("trial %d: ordered HSP %+v not in naive output", trial, o)
			}
			if seen[o] {
				t.Fatalf("trial %d: duplicate ordered HSP %+v", trial, o)
			}
			seen[o] = true
			orderedDiags[keyOf(b1, b2, o)] = true
		}
		for k := range naiveDiags {
			if !orderedDiags[k] {
				t.Fatalf("trial %d: diagonal %+v lost by ordered rule", trial, k)
			}
		}
	}
}

func TestScoresMatchRescore(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seqs1 := randomSeqs(rng, 3, 50, 120)
	seqs2 := []string{mutate(rng, seqs1[0], 0.1)}
	b1 := mkBank("x", seqs1...)
	b2 := mkBank("y", seqs2...)
	hs, _ := runStep2(b1, b2, 5, 20, true)
	if len(hs) == 0 {
		t.Fatal("no HSPs produced")
	}
	for _, h := range hs {
		if got := Rescore(b1.Data, b2.Data, h, 1, 3); got != h.Score {
			t.Errorf("HSP %+v: stored score %d, rescore %d", h, h.Score, got)
		}
	}
}

func TestHSPsNeverCrossSequenceBoundaries(t *testing.T) {
	// Two identical sequences in each bank: extensions must stop at the
	// record boundary even though the neighbouring record continues
	// identically.
	b1 := mkBank("x", "ACGTACGTAA", "ACGTACGTAA")
	b2 := mkBank("y", "ACGTACGTAA", "ACGTACGTAA")
	hs, _ := runStep2(b1, b2, 4, 1<<30, true)
	for _, h := range hs {
		if b1.SeqAt(h.S1) != b1.SeqAt(h.E1-1) {
			t.Errorf("HSP %+v crosses a bank1 boundary", h)
		}
		if b2.SeqAt(h.S2) != b2.SeqAt(h.E2-1) {
			t.Errorf("HSP %+v crosses a bank2 boundary", h)
		}
	}
	// 2x2 sequence pairs, each pair one full-length identical HSP (the
	// internal ACGT repeat also yields shifted off-diagonal HSPs, which
	// is correct — only the full-length ones are counted here).
	full := 0
	for _, h := range hs {
		if h.Len() == 10 && h.Score == 10 {
			full++
		}
	}
	if full != 4 {
		t.Errorf("got %d full-length HSPs, want 4 (one per sequence pair); all: %+v", full, hs)
	}
}

func TestAmbiguousBasesNeverMatch(t *testing.T) {
	b1 := mkBank("x", "ACGTACGTNNACGTACGT")
	b2 := mkBank("y", "ACGTACGTNNACGTACGT")
	hs, _ := runStep2(b1, b2, 4, 4, true)
	for _, h := range hs {
		for i := int32(0); i < h.Len(); i++ {
			if b1.Data[h.S1+i] >= 4 && b2.Data[h.S2+i] >= 4 {
				// N-vs-N columns may appear inside an HSP only as
				// mismatches: under +1/−1 it cannot score its length.
				if Rescore(b1.Data, b2.Data, h, 1, 1) == h.Len() {
					t.Errorf("HSP %+v counts N=N as identity", h)
				}
			}
		}
	}
}

func TestXDropLimitsExtension(t *testing.T) {
	// A perfect 20-base match, then 10 mismatches, then another perfect
	// region. Small X-drop must not bridge the mismatch gulf.
	core := "ACGTTGCAGGTACCTTACGA"
	tail := "GGGGGGGGGG"
	far := "TTCAGGACCATGCAATGCAT"
	s1 := core + tail + far
	s2 := core + "CCCCCCCCCC" + far
	b1 := mkBank("x", s1)
	b2 := mkBank("y", s2)
	hs, _ := runStep2(b1, b2, 5, 6, true)
	// The gulf occupies sequence offsets [20,30). Bridging it costs 10
	// mismatches (-30), far beyond xdrop=6, so no HSP may overlap it.
	lo1, _ := b1.SeqBounds(0)
	gulfStart, gulfEnd := lo1+20, lo1+30
	for _, h := range hs {
		if h.S1 < gulfEnd && gulfStart < h.E1 {
			t.Errorf("HSP %+v overlaps the mismatch gulf with xdrop=6", h)
		}
		if h.Len() > int32(len(core)) {
			t.Errorf("HSP %+v longer than a matching block", h)
		}
	}
	// The two 20-base blocks each produce one full-block HSP.
	full := 0
	for _, h := range hs {
		if h.Len() == 20 && h.Score == 20 {
			full++
		}
	}
	if full != 2 {
		t.Errorf("want 2 full-block HSPs, got %d: %+v", full, hs)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	seqs1 := randomSeqs(rng, 2, 80, 120)
	b1 := mkBank("x", seqs1...)
	b2 := mkBank("y", mutate(rng, seqs1[0], 0.02))
	_, st := runStep2(b1, b2, 4, 1<<30, true)
	if st.Extensions != st.Aborted+st.Emitted {
		t.Errorf("extensions %d != aborted %d + emitted %d", st.Extensions, st.Aborted, st.Emitted)
	}
	if st.Aborted == 0 {
		t.Error("a 2%-mutated copy should trigger ordered aborts")
	}
}

func TestMidpoint(t *testing.T) {
	h := HSP{S1: 10, E1: 20, S2: 100, E2: 110}
	m1, m2 := h.Mid()
	if m1 != 15 || m2 != 105 {
		t.Errorf("Mid = %d,%d", m1, m2)
	}
}

func TestContains(t *testing.T) {
	outer := HSP{S1: 0, E1: 100, S2: 50, E2: 150}
	inner := HSP{S1: 10, E1: 50, S2: 60, E2: 100}
	if !outer.Contains(inner) {
		t.Error("outer should contain inner")
	}
	if inner.Contains(outer) {
		t.Error("inner should not contain outer")
	}
}

func TestSortByDiagOrder(t *testing.T) {
	hs := []HSP{
		{S1: 10, S2: 0, E1: 15, E2: 5}, // diag 10
		{S1: 0, S2: 10, E1: 5, E2: 15}, // diag -10
		{S1: 5, S2: 5, E1: 10, E2: 10}, // diag 0
		{S1: 2, S2: 2, E1: 8, E2: 8},   // diag 0, earlier S1
	}
	SortByDiag(hs)
	if hs[0].Diag() != -10 || hs[1].S1 != 2 || hs[2].S1 != 5 || hs[3].Diag() != 10 {
		t.Errorf("sorted = %+v", hs)
	}
}

func TestDedupRemovesExactCopies(t *testing.T) {
	h := HSP{S1: 1, E1: 5, S2: 2, E2: 6, Score: 4}
	out := Dedup([]HSP{h, h, h})
	if len(out) != 1 {
		t.Errorf("Dedup kept %d", len(out))
	}
	out = Dedup(nil)
	if len(out) != 0 {
		t.Errorf("Dedup(nil) = %v", out)
	}
}

func TestLowSeedInRepeatRegionAborts(t *testing.T) {
	// A poly-A region: the anchor AAAA.. is the lowest code (0), so
	// extensions from any *other* seed overlapping it abort, and the
	// poly-A anchored extension survives. Exactly 1 HSP per diagonal
	// region pair.
	s := strings.Repeat("A", 30)
	b1 := mkBank("x", s)
	b2 := mkBank("y", s)
	hs, _ := runStep2(b1, b2, 6, 1<<30, true)
	// Hit pairs exist on many diagonals (any offset alignment of the two
	// poly-A runs); each diagonal must yield exactly one HSP.
	perDiag := map[int32]int{}
	for _, h := range hs {
		perDiag[h.Diag()]++
	}
	for d, n := range perDiag {
		if n != 1 {
			t.Errorf("diagonal %d has %d HSPs, want 1", d, n)
		}
	}
}

// The abort rule keeps the embedded-seed code only while a run of at
// least W matches is alive, re-encoding it when a run that a mismatch
// broke reaches W again. Each row puts a second W-run one mismatch away
// from the anchor and says whether it must abort: on the left arm an
// equal code is a duplicate (the leftmost occurrence generates the
// HSP), on the right arm it is not and only a lower code aborts; with
// bank-1 sampling the rule fires only on windows the index contains
// (even Data positions — a sequence's first base sits at Data[1]).
func TestSecondRunAfterMismatchAborts(t *testing.T) {
	const w = 4
	for _, tc := range []struct {
		name       string
		s1, s2     string
		anchorOff  int32 // offset of the anchor seed in both sequences
		sampleStep int32
		wantOK     bool
	}{
		{"left equal code", "ACGAGACGA", "ACGATACGA", 5, 0, false},
		{"left equal code, window unsampled", "ACGAGACGA", "ACGATACGA", 5, 2, true},
		{"left equal code, window sampled", "GACGAGACGA", "TACGATACGA", 6, 2, false},
		{"right equal code", "ACGAGACGA", "ACGATACGA", 0, 0, true},
		{"right equal code, window sampled", "ACGAGACGA", "ACGATACGA", 0, 2, true},
		{"right lower code", "CCGAGAAGA", "CCGATAAGA", 0, 0, false},
		{"right lower code, window sampled", "CCGAGAAGA", "CCGATAAGA", 0, 2, false},
		{"right lower code, window unsampled", "CCGAGGAAGA", "CCGATTAAGA", 0, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b1, b2 := mkBank("x", tc.s1), mkBank("y", tc.s2)
			lo1, _ := b1.SeqBounds(0)
			lo2, _ := b2.SeqBounds(0)
			p1, p2 := lo1+tc.anchorOff, lo2+tc.anchorOff
			anchor, ok := seed.Encode(b1.Data[p1:], w)
			if !ok {
				t.Fatal("anchor window invalid")
			}
			ext := Extender{W: w, Match: 1, Mismatch: 3, XDrop: 20, Ordered: true, SampleStep: tc.sampleStep}
			var st Stats
			h, ok := ext.Extend(b1.Data, b2.Data, p1, p2, anchor, &st)
			if ok != tc.wantOK {
				t.Fatalf("Extend ok=%v (aborted=%d), want %v", ok, st.Aborted, tc.wantOK)
			}
			if ok && (h.S1 != lo1+h.S2-lo2 || h.Len() < w) {
				t.Errorf("HSP %+v off the anchor diagonal or shorter than the seed", h)
			}
			// The naive extender never aborts, whatever the runs hold.
			ext.Ordered = false
			if _, ok := ext.Extend(b1.Data, b2.Data, p1, p2, anchor, nil); !ok {
				t.Error("unordered extension aborted")
			}
		})
	}
}

func BenchmarkExtendOrdered(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	seqs := randomSeqs(rng, 1, 10000, 10000)
	b1 := mkBank("x", seqs[0])
	b2 := mkBank("y", mutate(rng, seqs[0], 0.05))
	const w = 11
	ix1 := &index.Build(b1, index.Options{W: w}).Parts()[0]
	// The lowest occupied code and its first occurrence.
	code := ix1.Directory()[0]
	p1 := ix1.Occ(code)[0]
	ext := Extender{W: w, Match: 1, Mismatch: 3, XDrop: 20, Ordered: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One record a side, so equal Data positions are equal offsets.
		ext.Extend(b1.Data, b2.Data, p1, p1, code, nil)
	}
}
