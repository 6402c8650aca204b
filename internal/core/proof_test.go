package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/seed"
)

// proofBanks is a db and two query banks homologous to overlapping
// parts of it, so the slots the two queries join share some codes and
// not others.
func proofBanks() (db, qA, qB *bank.Bank) {
	rng := rand.New(rand.NewSource(43))
	seqs := make([]string, 8)
	for i := range seqs {
		seqs[i] = randSeq(rng, 600)
	}
	mut := func(from, to int) []string {
		var out []string
		for _, s := range seqs[from:to] {
			out = append(out, mutateIndel(rng, s, 0.04, 0.005))
		}
		return out
	}
	return mkBank("db", seqs...), mkBank("qA", mut(0, 4)...), mkBank("qB", mut(2, 6)...)
}

// loaded is ix as a load returns it: reassembled from its one block, its
// windows unproven.
func loaded(t *testing.T, ix *index.Index) *index.Index {
	t.Helper()
	out, err := index.FromBlocks(ix.Bank, ix.Options(), ix.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sharedWindows is the number of occurrences in ix of the codes both ix
// and other hold, leaving out the codes in skip: the windows a compare
// of the two proves on ix when the slots of skip are proven already.
func sharedWindows(ix, other *index.Index, skip map[seed.Code]bool) (int64, map[seed.Code]bool) {
	var n int64
	joined := map[seed.Code]bool{}
	q := only(ix)
	for i, c := range q.Directory() {
		if _, found := only(other).Slot(c); found {
			joined[c] = true
			if !skip[c] {
				n += int64(q.Offsets[i+1] - q.Offsets[i])
			}
		}
	}
	return n, joined
}

// TestWindowsProvenCounter: a compare on built indexes proves nothing;
// on a loaded one it proves exactly the windows of the slots it joins,
// the same count at every worker count; and a later compare on the same
// loaded index proves only the slots no earlier one did.
func TestWindowsProvenCounter(t *testing.T) {
	db, qA, qB := proofBanks()
	opt := DefaultOptions()
	o1, o2 := opt.IndexOptions()
	dbIx, aIx, bIx := index.Build(db, o1), index.Build(qA, o2), index.Build(qB, o2)
	ref, err := CompareWithIndex(dbIx, aIx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Metrics.WindowsProven != 0 || len(ref.Alignments) == 0 {
		t.Fatalf("built indexes: %d windows proven, %d alignments — want none proven and some alignments",
			ref.Metrics.WindowsProven, len(ref.Alignments))
	}

	wantDB, joinedA := sharedWindows(dbIx, aIx, nil)
	wantQ, _ := sharedWindows(aIx, dbIx, nil)
	for _, workers := range []int{1, 2, 4} {
		opt.Workers = workers
		res, err := CompareWithIndex(loaded(t, dbIx), loaded(t, aIx), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics.WindowsProven; got != wantDB+wantQ || got == 0 {
			t.Errorf("workers=%d: %d windows proven, want the %d + %d of the joined slots", workers, got, wantDB, wantQ)
		}
		if !slices.Equal(res.Alignments, ref.Alignments) {
			t.Errorf("workers=%d: loaded indexes changed the output", workers)
		}
	}

	opt.Workers = 2
	shared := loaded(t, dbIx)
	first, err := CompareWithIndex(shared, aIx, opt)
	if err != nil || first.Metrics.WindowsProven != wantDB {
		t.Fatalf("first compare on the loaded db: %v, %d windows proven, want %d", err, first.Metrics.WindowsProven, wantDB)
	}
	wantB, _ := sharedWindows(dbIx, bIx, joinedA)
	if all, _ := sharedWindows(dbIx, bIx, nil); wantB == 0 || wantB == all {
		t.Fatalf("degenerate banks: qB joins %d db windows, %d of them unjoined by qA", all, wantB)
	}
	second, err := CompareWithIndex(shared, bIx, opt)
	if err != nil || second.Metrics.WindowsProven != wantB {
		t.Errorf("second compare on the loaded db: %v, %d windows proven, want the %d of slots the first did not join",
			err, second.Metrics.WindowsProven, wantB)
	}
	third, err := CompareWithIndex(shared, aIx, opt)
	if err != nil || third.Metrics.WindowsProven != 0 || !slices.Equal(third.Alignments, ref.Alignments) {
		t.Errorf("repeated compare on the loaded db: %v, %d windows proven — want none, and the same output", err, third.Metrics.WindowsProven)
	}
}

// TestConcurrentComparesOverOneLoadedIndex: compares sharing one loaded
// db index, its slots proven by whichever reads them first, each produce
// what they produce on built indexes — loaded from one block, and from
// one block a sequence, whose parts prove their slots apart. Under
// -race this is the test of the proof bits' publication.
func TestConcurrentComparesOverOneLoadedIndex(t *testing.T) {
	db, qA, qB := proofBanks()
	opt := DefaultOptions()
	opt.Workers = 2
	o1, o2 := opt.IndexOptions()
	dbIx := index.Build(db, o1)
	queries := []*index.Index{index.Build(qA, o2), index.Build(qB, o2)}
	var want [2]*Result
	for i, q := range queries {
		res, err := CompareWithIndex(dbIx, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	union, joinedA := sharedWindows(dbIx, queries[0], nil)
	onlyB, _ := sharedWindows(dbIx, queries[1], joinedA)
	for _, shared := range []*index.Index{loaded(t, dbIx), perSeq(t, db, o1, true)} {
		var wg sync.WaitGroup
		var proven [8]int64
		for g := range proven {
			wg.Add(1)
			go func() {
				defer wg.Done()
				q := queries[g%2]
				res, err := CompareWithIndex(shared, q, opt)
				if err != nil {
					t.Error(err)
					return
				}
				proven[g] = res.Metrics.WindowsProven
				if !slices.Equal(res.Alignments, want[g%2].Alignments) {
					t.Errorf("%d parts: compare %d over the shared loaded index differs from the built one", len(shared.Parts()), g)
				}
			}()
		}
		wg.Wait()
		var total int64
		for _, n := range proven {
			total += n
		}
		// Racing first readers may each prove a slot: at least every joined
		// window once, at most once per compare.
		if total < union+onlyB || total > int64(len(proven))*(union+onlyB) {
			t.Errorf("%d parts: %d windows proven across the compares, want between %d and %d",
				len(shared.Parts()), total, union+onlyB, int64(len(proven))*(union+onlyB))
		}
		if shared.Revoked() {
			t.Error("a sound index was revoked")
		}
	}
}

// TestFailedProofFailsCompare: a loaded index holding a position whose
// window is not its slot's code fails the compare that reads the slot,
// and is revoked.
func TestFailedProofFailsCompare(t *testing.T) {
	db, qA, _ := proofBanks()
	opt := DefaultOptions()
	o1, o2 := opt.IndexOptions()
	dbIx, aIx := index.Build(db, o1), index.Build(qA, o2)
	// The first occurrence of a code both banks hold, moved one base on
	// inside its record: the same order, another window.
	slot := -1
	var c seed.Code
	q := only(dbIx)
	for i, code := range q.Directory() {
		if _, found := only(aIx).Slot(code); found && q.Offsets[i+1]-q.Offsets[i] == 1 {
			slot, c = i, code
			break
		}
	}
	if slot < 0 {
		t.Fatal("no shared code occurs once in the db")
	}
	bp := dbIx.Blocks()[0]
	bp.Pos = slices.Clone(bp.Pos)
	bp.Pos[q.Offsets[slot]]--
	if shifted, _ := seed.Encode(db.Data[bp.Pos[q.Offsets[slot]]:], o1.W); shifted == c {
		t.Fatal("the shifted window holds the same code")
	}
	bad, err := index.FromBlocks(db, o1, []index.BlockParts{bp})
	if err != nil {
		t.Fatalf("an in-order position inside the bank was refused at load: %v", err)
	}
	for _, workers := range []int{1, 3} {
		opt.Workers = workers
		if res, err := CompareWithIndex(bad, aIx, opt); err == nil {
			t.Fatalf("workers=%d: the compare over a crafted slot returned %d alignments and no error", workers, len(res.Alignments))
		}
	}
	if !bad.Revoked() {
		t.Error("the index survived its failed proof")
	}
}
