package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// optionVariants covers every Options field that changes the derived
// index options, so the equivalence below exercises each derivation.
func optionVariants() map[string]Options {
	def := DefaultOptions()
	def.Workers = 1
	asym := def
	asym.W = 10
	asym.Asymmetric = true
	noDust := def
	noDust.Dust = false
	both := def
	both.Strand = BothStrands
	return map[string]Options{
		"default":     def,
		"asymmetric":  asym,
		"no-dust":     noDust,
		"both-strand": both,
	}
}

// TestCompareWithIndexMatchesCompare pins the tentpole equivalence:
// preparing indexes up front and running CompareWithIndex yields
// exactly the alignments Compare produces, for every option shape that
// changes the index derivation.
func TestCompareWithIndexMatchesCompare(t *testing.T) {
	b1, b2 := testBanks(31, 6, 6, 4, 700)
	for name, opt := range optionVariants() {
		ref, err := Compare(b1, b2, opt)
		if err != nil {
			t.Fatalf("%s: Compare: %v", name, err)
		}
		p1, p2, err := Prepare(nil, b1, b2, opt)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", name, err)
		}
		got, err := CompareWithIndex(p1, p2, opt)
		if err != nil {
			t.Fatalf("%s: CompareWithIndex: %v", name, err)
		}
		if len(ref.Alignments) == 0 {
			t.Fatalf("%s: degenerate test, no alignments", name)
		}
		// Same execution strategy on identical indexes: every field,
		// anchors included, must agree.
		if len(got.Alignments) != len(ref.Alignments) {
			t.Fatalf("%s: %d alignments vs Compare's %d",
				name, len(got.Alignments), len(ref.Alignments))
		}
		for i := range ref.Alignments {
			if got.Alignments[i] != ref.Alignments[i] {
				t.Fatalf("%s: alignment %d differs:\n  with index: %+v\n  compare:    %+v",
					name, i, got.Alignments[i], ref.Alignments[i])
			}
		}
		m, r := got.Metrics, ref.Metrics
		if m.HitPairs != r.HitPairs || m.HSPs != r.HSPs ||
			m.IndexedBank1 != r.IndexedBank1 || m.IndexedBank2 != r.IndexedBank2 {
			t.Errorf("%s: work counters differ: %+v vs %+v", name, m, r)
		}
	}
}

// TestPreparedReuseAcrossPairs is the amortization contract on a
// multi-pair workload sharing one bank: one build per distinct
// (bank, options) key, identical output per pair.
func TestPreparedReuseAcrossPairs(t *testing.T) {
	db, q1 := testBanks(32, 6, 6, 4, 600)
	_, q2 := testBanks(33, 6, 6, 3, 600)
	opt := DefaultOptions()
	opt.Workers = 1

	cache := ixcache.New(8)
	for i, q := range []*bank.Bank{q1, q2, q1} {
		p1, p2, err := Prepare(cache, db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompareWithIndex(p1, p2, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := mustCompare(t, db, q, opt)
		if !alignmentsEqual(ref.Alignments, got.Alignments) {
			t.Fatalf("pair %d: prepared output differs from Compare", i)
		}
	}
	// Three pairs, three distinct banks involved (db, q1, q2): exactly
	// three builds, never one per pair side.
	if got := cache.Builds(); got != 3 {
		t.Errorf("builds = %d, want 3 (db, q1, q2 once each)", got)
	}
	if got := cache.Lookups(); got != 6 {
		t.Errorf("lookups = %d, want 6", got)
	}
}

// TestPrepareSelfComparison: comparing a bank against itself needs one
// index, not two.
func TestPrepareSelfComparison(t *testing.T) {
	b, _ := testBanks(34, 4, 1, 0, 500)
	opt := DefaultOptions()
	opt.SkipSelfPairs = true
	p1, p2, err := Prepare(nil, b, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("self-comparison should share one prepared index")
	}
	got, err := CompareWithIndex(p1, p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustCompare(t, b, b, opt)
	if !alignmentsEqual(ref.Alignments, got.Alignments) {
		t.Error("self-comparison output differs from Compare")
	}
}

// TestCompareWithIndexRejectsMismatch pins the reuse-contract guard: an
// index is valid only for the exact (bank, Options) it was built from.
func TestCompareWithIndexRejectsMismatch(t *testing.T) {
	b1, b2 := testBanks(35, 3, 3, 2, 400)
	opt := DefaultOptions()
	p1, p2, err := Prepare(nil, b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]Options{}
	wrongW := opt
	wrongW.W = 12
	cases["wrong W"] = wrongW
	dustOff := opt
	dustOff.Dust = false
	cases["dust mismatch"] = dustOff
	asym := opt
	asym.W = 11
	asym.Asymmetric = true
	cases["sampling mismatch"] = asym

	for name, bad := range cases {
		if _, err := CompareWithIndex(p1, p2, bad); err == nil {
			t.Errorf("%s: accepted a prepared index built for different options", name)
		}
	}

	// Dust parameters are part of an index's identity where the key is
	// computed — index.Options.Dust: an index masked with another window
	// is not the one the engine's masker would have built.
	o1, _ := opt.IndexOptions()
	otherDust := o1
	otherDust.Dust = dust.New(16, 0)
	if _, err := CompareWithIndex(ixcache.Prepare(b1, otherDust), p2, opt); err == nil {
		t.Error("dust window mismatch: accepted a prepared index built for different options")
	}

	// A hand-assembled Prepared whose index belongs to another bank
	// must be rejected even when the options line up.
	franken := &ixcache.Prepared{Bank: b1, Ix: index.Build(b2, o1)}
	if _, err := CompareWithIndex(franken, p2, opt); err == nil {
		t.Error("accepted an index built from a different bank")
	}
	if _, err := CompareWithIndex(nil, p2, opt); err == nil {
		t.Error("accepted a nil prepared bank")
	}
}

// TestCompareAllocatesOneGappedExtender is the allocation gate on the
// per-request path of a resident bank: a compare run owns one gapped
// extender (its cell row + a 64 KB traceback buffer), not one per
// bank-2 sequence with HSPs, and takes it from the pool — so a warm
// compare of sixteen reads that all hit allocates no buffer at all, only
// its HSPs and alignments.
func TestCompareAllocatesOneGappedExtender(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// The pool keeps an extender per P; on one P a Get always finds the
	// last Put, wherever the scheduler resumes this goroutine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b1, b2 := testBanks(47, 40, 16, 16, 450)
	opt := DefaultOptions()
	opt.Workers = 1
	p1, p2, err := Prepare(nil, b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CompareWithIndex(p1, p2, opt) // leaves its extender in the pool
	if err != nil {
		t.Fatal(err)
	}
	hit := map[int32]bool{}
	for _, a := range res.Alignments {
		hit[a.Seq2] = true
	}
	if len(hit) != b2.NumSeqs() {
		t.Fatalf("degenerate test: %d of %d reads aligned", len(hit), b2.NumSeqs())
	}
	// A run that ends early hands its extender back like any other: a
	// failing sink and an abandoned stream must not cost the next request
	// a fresh one.
	sinkClosed := errors.New("sink closed")
	_, err = CompareStreamWithIndex(context.Background(), p1, p2, opt, func(int, []align.Alignment) error { return sinkClosed })
	if !errors.Is(err, sinkClosed) {
		t.Fatalf("failing emit: err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = CompareStreamWithIndex(ctx, p1, p2, opt, func(int, []align.Alignment) error { cancel(); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream: err = %v", err)
	}
	const runs = 2 // few, so that one extender allocated among them shows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err = CompareWithIndex(p1, p2, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun, allocs := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
	if perRun > 40<<10 || allocs > 160 {
		t.Errorf("a warm CompareWithIndex of %d reads allocates %d bytes in %d objects, want ≤ 40 KiB in ≤ 160",
			b2.NumSeqs(), perRun, allocs)
	}
}
