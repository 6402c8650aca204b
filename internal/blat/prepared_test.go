package blat

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// TestCompareWithIndexMatchesCompare: a tile index prepared once and
// reused across query banks must reproduce one-shot Compare exactly.
func TestCompareWithIndexMatchesCompare(t *testing.T) {
	db, q1 := testBanks(21, 5, 5, 3, 700)
	// Same generator seed reproduces the same db sequences, so q2 is a
	// differently-shaped query bank homologous to the SAME db.
	_, q2 := testBanks(21, 5, 8, 4, 700)
	opt := DefaultOptions()

	cache := ixcache.New(4)
	for i, q := range []*bank.Bank{q1, q2, q1} {
		pdb := cache.Get(db, opt.IndexOptions())
		got, err := CompareWithIndex(pdb, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Compare(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Alignments) == 0 {
			t.Fatalf("round %d: degenerate test, no alignments", i)
		}
		if len(got.Alignments) != len(ref.Alignments) {
			t.Fatalf("round %d: %d alignments vs %d", i, len(got.Alignments), len(ref.Alignments))
		}
		for j := range ref.Alignments {
			if got.Alignments[j] != ref.Alignments[j] {
				t.Fatalf("round %d: alignment %d differs:\n  prepared: %+v\n  oneshot:  %+v",
					i, j, got.Alignments[j], ref.Alignments[j])
			}
		}
	}
	if cache.Builds() != 1 {
		t.Errorf("tile index built %d times, want 1", cache.Builds())
	}
}

// TestCompareWithIndexRejectsMismatch: an all-positions (ORIS-style)
// index or a different tile size is not a valid BLAT tile index.
func TestCompareWithIndexRejectsMismatch(t *testing.T) {
	db, q := testBanks(23, 3, 3, 2, 400)
	opt := DefaultOptions()

	allPositions := ixcache.Prepare(db, index.Options{W: opt.W}) // SampleStep 1, not W
	if _, err := CompareWithIndex(allPositions, q, opt); err == nil {
		t.Error("accepted an all-positions index as a tile index")
	}

	wrongTile := DefaultOptions()
	wrongTile.W = 12
	pdb := ixcache.Prepare(db, wrongTile.IndexOptions())
	if _, err := CompareWithIndex(pdb, q, opt); err == nil {
		t.Error("accepted a tile index with a different tile size")
	}
	if _, err := CompareWithIndex(nil, q, opt); err == nil {
		t.Error("accepted a nil prepared db")
	}
}

// TestCompareWithIndexAllocatesByTheQuery: what a search allocates is
// sized by the query and its hits, never by the database. A 16-read
// query against a 1 Mbp db stays under 1 MB; diagonal state sized by the
// db (two int32 arrays of len(db.Data), 8 MB here) fails it.
func TestCompareWithIndexAllocatesByTheQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	chroms := make([]string, 4)
	for i := range chroms {
		chroms[i] = randSeq(rng, 260_000)
	}
	db := mkBank("db", chroms...)
	reads := make([]string, 16)
	for i := range reads {
		if i%2 == 0 {
			c := chroms[i%len(chroms)]
			at := rng.Intn(len(c) - 450)
			reads[i] = mutate(rng, c[at:at+450], 0.03)
		} else {
			reads[i] = randSeq(rng, 450)
		}
	}
	q := mkBank("q", reads...)
	opt := DefaultOptions()
	pdb := ixcache.Prepare(db, opt.IndexOptions())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := CompareWithIndex(pdb, q, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) < 8 {
		t.Fatalf("degenerate test: %d alignments for 8 planted reads", len(res.Alignments))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("CompareWithIndex allocated %d bytes for a 16-read query against a %d-base db, want < 1 MB",
			got, db.TotalBases())
	}
}
