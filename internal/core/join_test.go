package core

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/seed"
)

// randomCodes returns n distinct codes below space, ascending — a
// directory.
func randomCodes(rng *rand.Rand, n, space int) []seed.Code {
	set := map[seed.Code]bool{}
	for len(set) < n {
		set[seed.Code(rng.Intn(space))] = true
	}
	out := make([]seed.Code, 0, n)
	for c := range set {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// TestJoinCodesMatchesMapIntersection: for every directory shape the
// join has a branch for, joinCodes visits exactly the slots a brute-
// force map intersection names, each once, for any worker count, in
// ascending order per worker — and the shuffled order visits the same
// set.
func TestJoinCodesMatchesMapIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	big := randomCodes(rng, 5000, 1<<16)
	small := randomCodes(rng, 40, 1<<16)
	// Lopsided with guaranteed hits at both ends and in the middle.
	small = append(small, big[0], big[len(big)/2], big[len(big)-1])
	slices.Sort(small)
	small = slices.Compact(small)
	peer := randomCodes(rng, 4000, 1<<13) // comparable sizes, dense overlap
	peer2 := randomCodes(rng, 4500, 1<<13)
	var evens, odds []seed.Code
	for c := 0; c < 600; c += 2 {
		evens = append(evens, seed.Code(c))
		odds = append(odds, seed.Code(c+1))
	}

	for _, tc := range []struct {
		name   string
		c1, c2 []seed.Code
	}{
		{"small drives large", small, big},
		{"large driven by small", big, small},
		{"comparable", peer, peer2},
		{"disjoint interleaved", evens, odds},
		{"disjoint ranges", big[:100], big[200:]},
		// Every driving slot is shared, so every chunk boundary lands on
		// a shared code.
		{"identical", peer, peer},
		{"left empty", nil, peer},
		{"right empty", peer, nil},
		{"both empty", nil, nil},
		{"single slot", big[7:8], big},
		{"other ends first", big, big[:3]},
	} {
		in2 := map[seed.Code]int{}
		for k, c := range tc.c2 {
			in2[c] = k
		}
		type slots struct{ k1, k2 int }
		var want []slots
		for k1, c := range tc.c1 {
			if k2, ok := in2[c]; ok {
				want = append(want, slots{k1, k2})
			}
		}
		for _, workers := range []int{1, 2, 7} {
			for _, shuffled := range []bool{false, true} {
				perWorker := make([][]slots, workers)
				err := joinCodes(context.Background(), tc.c1, tc.c2, workers, shuffled, func(wid, k1, k2 int) {
					perWorker[wid] = append(perWorker[wid], slots{k1, k2})
				})
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				var got []slots
				for wid, visited := range perWorker {
					if !shuffled && !slices.IsSortedFunc(visited, func(a, b slots) int { return a.k1 - b.k1 }) {
						t.Errorf("%s workers=%d: worker %d did not visit codes in ascending order", tc.name, workers, wid)
					}
					got = append(got, visited...)
				}
				slices.SortFunc(got, func(a, b slots) int { return a.k1 - b.k1 })
				if !slices.Equal(got, want) {
					t.Errorf("%s workers=%d shuffled=%v: visited %d slot pairs, map intersection has %d",
						tc.name, workers, shuffled, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinCodesHonoursCancellation: a cancelled context stops the join
// and is reported.
func TestJoinCodesHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := randomCodes(rand.New(rand.NewSource(1)), 100, 1<<10)
	visited := 0
	if err := joinCodes(ctx, c, c, 1, false, func(int, int, int) { visited++ }); err == nil || visited != 0 {
		t.Errorf("cancelled join: err=%v, visited %d slots", err, visited)
	}
}

// exactRun is the oracle's ungapped extension for the X-drop the test
// below runs step 2 at: the smallest, so an arm stops at its first
// mismatch and the HSP is the maximal run of identical valid bases
// through the hit, inside both sequences.
func exactRun(b1, b2 *bank.Bank, p1, p2 int32, w int) hsp.HSP {
	lo1, hi1 := b1.SeqBounds(int(b1.SeqAt(p1)))
	lo2, hi2 := b2.SeqBounds(int(b2.SeqAt(p2)))
	same := func(q1, q2 int32) bool { return b1.Data[q1] == b2.Data[q2] && b1.Data[q1] < 4 }
	s1, s2 := p1, p2
	for s1 > lo1 && s2 > lo2 && same(s1-1, s2-1) {
		s1, s2 = s1-1, s2-1
	}
	e1, e2 := p1+int32(w), p2+int32(w)
	for e1 < hi1 && e2 < hi2 && same(e1, e2) {
		e1, e2 = e1+1, e2+1
	}
	return hsp.HSP{S1: s1, E1: e1, S2: s2, E2: e2, Score: e1 - s1}
}

// TestStep2VisitsEveryHitPairOnce checks the enumeration against an
// oracle that shares none of it: every (code, p1, p2) with the same
// W-mer at p1 in bank 1 and p2 in bank 2, from two brute-force maps.
// With the ordered rule off every visited pair yields one HSP, so the
// HSP multiset and the hit-pair count expose a pair visited twice or
// not at all — for lopsided banks both ways round, banks sharing no
// seed, an empty index, and a bank against itself under SkipSelfPairs.
func TestStep2VisitsEveryHitPairOnce(t *testing.T) {
	const w = 8 // a few hundred codes in the reads, ten thousand in the genome
	rng := rand.New(rand.NewSource(23))
	reads := make([]string, 16)
	for i := range reads {
		reads[i] = randSeq(rng, 60)
	}
	query := mkBank("reads", reads...)
	genome := mkBank("genome", randSeq(rng, 9000)+reads[3]+randSeq(rng, 500), randSeq(rng, 4000)+"NNN"+reads[9])
	purines := mkBank("ag", strings.Repeat("AGGAGAAGAGGGAAGAGGA", 20))
	pyrimidines := mkBank("ct", strings.Repeat("CTTCTCCTCTTTCCTCTTC", 20))
	short := mkBank("short", "ACG", "TT")

	for _, tc := range []struct {
		name     string
		b1, b2   *bank.Bank
		skipSelf bool
		hits     bool // the row is meant to have hit pairs
	}{
		{"reads vs genome", query, genome, false, true},
		{"genome vs reads", genome, query, false, true},
		{"no shared seed", purines, pyrimidines, false, false},
		{"empty bank 1", short, genome, false, false},
		{"empty bank 2", query, short, false, false},
		{"self", genome, genome, true, true},
		{"self, all pairs", query, query, false, true},
	} {
		occ2 := map[seed.Code][]int32{}
		seed.ForEach(tc.b2.Data, w, func(p int32, c seed.Code) { occ2[c] = append(occ2[c], p) })
		var want []hsp.HSP
		seed.ForEach(tc.b1.Data, w, func(p1 int32, c seed.Code) {
			for _, p2 := range occ2[c] {
				if !tc.skipSelf || p1 < p2 {
					want = append(want, exactRun(tc.b1, tc.b2, p1, p2, w))
				}
			}
		})
		hsp.SortByDiag(want)
		if (len(want) > 0) != tc.hits {
			t.Fatalf("%s: oracle found %d hit pairs", tc.name, len(want))
		}

		ix1 := index.Build(tc.b1, index.Options{W: w})
		ix2 := ix1
		if tc.b2 != tc.b1 {
			ix2 = index.Build(tc.b2, index.Options{W: w})
		}
		for _, workers := range []int{1, 2, 7} {
			for _, shuffled := range []bool{false, true} {
				opt := DefaultOptions()
				opt.W = w
				opt.OrderedRule = false
				opt.UngappedXDrop = 1
				opt.MinUngappedScore = 0
				opt.Workers = workers
				opt.ShuffledSeedOrder = shuffled
				opt.SkipSelfPairs = tc.skipSelf
				got, res, err := step2(context.Background(), tc.b1, tc.b2, ix1, ix2, opt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				hsp.SortByDiag(got)
				if res.hitPairs != int64(len(want)) || !slices.Equal(got, want) {
					t.Errorf("%s workers=%d shuffled=%v: step 2 visited %d hit pairs (%d HSPs), the oracle has %d",
						tc.name, workers, shuffled, res.hitPairs, len(got), len(want))
				}
			}
		}
	}
}
