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

// joinW is the seed length of the directories the join tests make up:
// 4^8 codes, the space randomCodes draws from.
const joinW = 8

// dirIndex builds a real index whose directory is exactly codes: a bank
// of one joinW-base record per code.
func dirIndex(codes []seed.Code) *index.Index {
	seqs := make([]string, len(codes))
	for i, c := range codes {
		seqs[i] = seed.String(c, joinW)
	}
	return index.Build(mkBank("dir", seqs...), index.Options{W: joinW})
}

// TestJoinCodesMatchesMapIntersection: for every directory shape the
// join has a branch for, joinCodes visits exactly the slots a brute-
// force map intersection names, each once, for any worker count, in
// ascending order per worker, in batches of 1 to joinBatch pairs — and
// the shuffled order visits the same set.
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
		in2 := map[seed.Code]int32{}
		for k, c := range tc.c2 {
			in2[c] = int32(k)
		}
		var want []slotPair
		for k1, c := range tc.c1 {
			if k2, ok := in2[c]; ok {
				want = append(want, slotPair{int32(k1), k2})
			}
		}
		ix1, ix2 := dirIndex(tc.c1), dirIndex(tc.c2)
		if !slices.Equal(ix1.Codes, tc.c1) || !slices.Equal(ix2.Codes, tc.c2) {
			t.Fatalf("%s: dirIndex did not reproduce the directories", tc.name)
		}
		for _, workers := range []int{1, 2, 7} {
			for _, shuffled := range []bool{false, true} {
				perWorker := make([][]slotPair, workers)
				err := joinCodes(context.Background(), ix1, ix2, workers, shuffled, func(wid int, batch []slotPair) {
					if len(batch) == 0 || len(batch) > joinBatch {
						t.Errorf("%s workers=%d: a batch of %d pairs", tc.name, workers, len(batch))
					}
					perWorker[wid] = append(perWorker[wid], batch...)
				})
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				var got []slotPair
				byK1 := func(a, b slotPair) int { return int(a.k1 - b.k1) }
				for wid, visited := range perWorker {
					if !shuffled && !slices.IsSortedFunc(visited, byK1) {
						t.Errorf("%s workers=%d: worker %d did not visit codes in ascending order", tc.name, workers, wid)
					}
					got = append(got, visited...)
				}
				slices.SortFunc(got, byK1)
				if !slices.Equal(got, want) {
					t.Errorf("%s workers=%d shuffled=%v: visited %d slot pairs, map intersection has %d",
						tc.name, workers, shuffled, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinCodesBatchBoundaries pins how a chunk's matches are cut into
// batches: full batches of joinBatch, then the remainder, never a batch
// across a chunk end and never an empty one. One worker over a driving
// directory of 16 chunks of chunkLen slots, of which the first
// perChunk[chunk] are shared with the other directory.
func TestJoinCodesBatchBoundaries(t *testing.T) {
	const chunks, chunkLen = 16, 3 * joinBatch
	drive := make([]seed.Code, chunks*chunkLen)
	for i := range drive {
		drive[i] = seed.Code(2 * i) // odd codes are free for the other side
	}
	every := func(n int) (perChunk [chunks]int) {
		for c := range perChunk {
			perChunk[c] = n
		}
		return perChunk
	}
	for _, tc := range []struct {
		name     string
		perChunk [chunks]int
	}{
		{"no match", every(0)},
		{"one", every(1)},
		{"a batch less one", every(joinBatch - 1)},
		{"exactly a batch", every(joinBatch)},
		{"a batch and one", every(joinBatch + 1)},
		{"every slot", every(chunkLen)},
		// A short batch is closed by the end of its chunk, not topped up
		// from the next one; empty chunks deliver nothing.
		{"mixed", [chunks]int{40, 0, 1, 64, 31, 0, 0, 33, 96, 32, 5, 0, 65, 1, 0, 95}},
	} {
		other := make([]seed.Code, 0, 2*len(drive))
		for c, n := range tc.perChunk {
			other = append(other, drive[c*chunkLen:c*chunkLen+n]...)
		}
		for i := 0; len(other) <= len(drive); i++ {
			other = append(other, seed.Code(2*i+1))
		}
		slices.Sort(other)
		var want []int
		for _, n := range tc.perChunk {
			for ; n > joinBatch; n -= joinBatch {
				want = append(want, joinBatch)
			}
			if n > 0 {
				want = append(want, n)
			}
		}
		var got []int
		err := joinCodes(context.Background(), dirIndex(drive), dirIndex(other), 1, false, func(_ int, batch []slotPair) {
			got = append(got, len(batch))
			if first, last := batch[0].k1/chunkLen, batch[len(batch)-1].k1/chunkLen; first != last {
				t.Errorf("%s: a batch spans chunks %d to %d", tc.name, first, last)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: batch sizes %v, want %v", tc.name, got, want)
		}
	}
}

// TestJoinCodesHonoursCancellation: a cancelled context stops the join
// and is reported, and nothing is delivered once it is cancelled — not
// the rest of the chunk in progress, not a short last batch.
func TestJoinCodesHonoursCancellation(t *testing.T) {
	ix := dirIndex(randomCodes(rand.New(rand.NewSource(1)), 16*(2*joinBatch+5), 1<<16))
	for _, cancelAt := range []int{0, 1, 2, 3} { // batches delivered before the cancel
		ctx, cancel := context.WithCancel(context.Background())
		if cancelAt == 0 {
			cancel()
		}
		batches := 0
		err := joinCodes(ctx, ix, ix, 1, false, func(int, []slotPair) {
			if batches++; batches == cancelAt {
				cancel()
			}
		})
		cancel()
		if err == nil || batches != cancelAt {
			t.Errorf("cancel after %d batches: err=%v, %d batches delivered", cancelAt, err, batches)
		}
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

// TestStep2OrderAndCountsDoNotDependOnBatching: with the ordered rule on,
// one worker's step 2 yields the HSPs of the plain enumeration — every
// bank-1 code in ascending order, its X1×X2 pairs bank-1 position
// outermost — in that order, with its counters; and any worker count or
// the shuffled order yields the same multiset and the same counters.
func TestStep2OrderAndCountsDoNotDependOnBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	genes := make([]string, 12)
	for i := range genes {
		genes[i] = randSeq(rng, 300)
	}
	var dbSeqs, reads []string
	for i := 0; i < 60; i++ {
		dbSeqs = append(dbSeqs, randSeq(rng, 100)+mutateIndel(rng, genes[i%len(genes)], 0.03, 0.004)+randSeq(rng, 100))
	}
	for i := 0; i < 16; i++ {
		reads = append(reads, mutateIndel(rng, genes[i%len(genes)], 0.03, 0.004))
	}
	db, query := mkBank("db", dbSeqs...), mkBank("reads", reads...)

	for _, tc := range []struct {
		name   string
		b1, b2 *bank.Bank
	}{{"db vs reads", db, query}, {"reads vs db", query, db}} {
		opt := DefaultOptions()
		opt.Workers = 1
		o1, o2 := opt.IndexOptions()
		ix1, ix2 := index.Build(tc.b1, o1), index.Build(tc.b2, o2)
		ext := hsp.Extender{W: opt.W, Match: int32(opt.Scoring.Match), Mismatch: int32(opt.Scoring.Mismatch),
			XDrop: opt.UngappedXDrop, Ordered: true}
		var want []hsp.HSP
		var wantStats hsp.Stats
		for _, code := range ix1.Codes {
			for _, p1 := range ix1.Occ(code) {
				for _, p2 := range ix2.Occ(code) {
					if h, ok := ext.Extend(tc.b1.Data, tc.b2.Data, p1, p2, code, &wantStats); ok && h.Score >= opt.MinUngappedScore {
						want = append(want, h)
					}
				}
			}
		}
		if len(want) < 2*joinBatch {
			t.Fatalf("%s: degenerate test, %d HSPs", tc.name, len(want))
		}
		got, res, err := step2(context.Background(), tc.b1, tc.b2, ix1, ix2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || res.stats != wantStats || res.hitPairs != wantStats.Extensions {
			t.Errorf("%s: one worker's step 2 gave %d HSPs %+v, the plain enumeration %d %+v (or another order)",
				tc.name, len(got), res.stats, len(want), wantStats)
		}
		hsp.SortByDiag(want)
		for _, workers := range []int{1, 2, 7} {
			for _, shuffled := range []bool{false, true} {
				opt.Workers, opt.ShuffledSeedOrder = workers, shuffled
				got, res, err := step2(context.Background(), tc.b1, tc.b2, ix1, ix2, opt)
				if err != nil {
					t.Fatal(err)
				}
				hsp.SortByDiag(got)
				if !slices.Equal(got, want) || res.stats != wantStats || res.hitPairs != wantStats.Extensions {
					t.Errorf("%s workers=%d shuffled=%v: %d HSPs %+v, want %d %+v",
						tc.name, workers, shuffled, len(got), res.stats, len(want), wantStats)
				}
			}
		}
	}
}
