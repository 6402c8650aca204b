package blastn

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/tabular"
)

// streamM8 runs one call through stream and renders its groups as m8,
// the way the service's sinks do.
func streamM8(t *testing.T, db, q *bank.Bank, stream func(align.Emit) (*Result, error)) []byte {
	t.Helper()
	var m8 []byte
	if _, err := stream(func(_ int, g []align.Alignment) error {
		m8 = tabular.AppendGroup(m8, g, db, q)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return m8
}

// reuseCall is one call of the reuse tests: a db, a query bank and
// options.
type reuseCall struct {
	name  string
	db, q *bank.Bank
	opt   Options
}

// reuseCalls crosses two dbs of different sizes, two query banks (one
// with queries long enough to grow the per-query arrays, one with a
// reverse-complement homolog), two ScanWords and both strand settings.
func reuseCalls() []reuseCall {
	rng := rand.New(rand.NewSource(41))
	var seqs []string
	for i := 0; i < 12; i++ {
		seqs = append(seqs, randSeq(rng, 700))
	}
	small := mkBank("small", seqs[:4]...)
	big := mkBank("big", seqs...)
	q := mkBank("q",
		mutateIndel(rng, seqs[0], 0.04, 0.005),
		mutateIndel(rng, seqs[3], 0.04, 0.005),
		mutateIndel(rng, seqs[9], 0.04, 0.005),
		string(dna.Decode(dna.ReverseComplement(dna.Encode([]byte(mutateIndel(rng, seqs[2], 0.04, 0.005)))))),
		randSeq(rng, 600))
	qLong := mkBank("qlong",
		randSeq(rng, 900)+mutateIndel(rng, seqs[1], 0.04, 0.005)+randSeq(rng, 900),
		mutateIndel(rng, seqs[11], 0.04, 0.005))

	var opts []Options
	for _, sw := range []int{8, 11} {
		for _, both := range []bool{false, true} {
			o := DefaultOptions()
			o.ScanWord, o.ScanStride = sw, o.W-sw+1
			o.BothStrands = both
			opts = append(opts, o)
		}
	}
	var calls []reuseCall
	for _, db := range []*bank.Bank{small, big} {
		for _, o := range opts {
			for _, qb := range []*bank.Bank{q, qLong} {
				name := db.Name + "/" + qb.Name
				if o.ScanWord == 11 {
					name += "/sw11"
				}
				if o.BothStrands {
					name += "/both"
				}
				calls = append(calls, reuseCall{name, db, qb, o})
			}
		}
	}
	return calls
}

// TestScratchReuseMatchesFreshCalls: one scratch serving interleaved
// calls — growing for the larger db and the longer queries, then
// serving the smaller ones, across both ScanWords and strand settings
// — produces what a call on a fresh scratch produces, m8 byte for byte.
// A reused scratch cannot leak word-table or diagonal state into the
// next call, and neither can the package pool's.
func TestScratchReuseMatchesFreshCalls(t *testing.T) {
	calls := reuseCalls()
	want := make([][]byte, len(calls))
	minus := 0
	for i, c := range calls {
		want[i] = streamM8(t, c.db, c.q, func(emit align.Emit) (*Result, error) {
			return new(scratch).compareStream(context.Background(), c.db, c.q, c.opt, func(qi int, g []align.Alignment) error {
				for _, a := range g {
					if a.Minus {
						minus++
					}
				}
				return emit(qi, g)
			})
		})
		if len(want[i]) == 0 {
			t.Fatalf("%s: degenerate test, no alignments", c.name)
		}
	}
	if minus == 0 {
		t.Fatal("degenerate test: no minus-strand alignments")
	}

	shared := new(scratch)
	order := make([]int, 0, 2*len(calls))
	for i := range calls {
		order = append(order, i)
	}
	for i := len(calls) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		c := calls[i]
		got := streamM8(t, c.db, c.q, func(emit align.Emit) (*Result, error) {
			return shared.compareStream(context.Background(), c.db, c.q, c.opt, emit)
		})
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s on a reused scratch: %d m8 bytes, fresh scratch %d", c.name, len(got), len(want[i]))
		}
		got = streamM8(t, c.db, c.q, func(emit align.Emit) (*Result, error) {
			return CompareStream(context.Background(), c.db, c.q, c.opt, emit)
		})
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s through the pool: %d m8 bytes, fresh scratch %d", c.name, len(got), len(want[i]))
		}
	}
}

// sameAlignments fails t unless got and ref hold the same alignments in
// the same order.
func sameAlignments(t *testing.T, round int, got, ref *Result) {
	t.Helper()
	if len(got.Alignments) != len(ref.Alignments) {
		t.Fatalf("round %d: reused scratch found %d alignments, Compare %d",
			round, len(got.Alignments), len(ref.Alignments))
	}
	for j := range ref.Alignments {
		if got.Alignments[j] != ref.Alignments[j] {
			t.Fatalf("round %d: alignment %d differs:\n  reused:  %+v\n  Compare: %+v",
				round, j, got.Alignments[j], ref.Alignments[j])
		}
	}
}

// TestSessionReuseMatchesCompare: one scratch serving a session of
// query banks against one db (re-serving the first, and growing for a
// bank of long queries mid-session) produces exactly what Compare
// produces for each — the generation-stamped state cannot leak between
// query banks.
func TestSessionReuseMatchesCompare(t *testing.T) {
	db, q1 := testBanks(41, 5, 5, 3, 600)
	// Same generator seed reproduces the same db sequences, so q2 is a
	// differently-shaped query bank homologous to the SAME db.
	_, q2 := testBanks(41, 5, 8, 4, 600)
	rng := rand.New(rand.NewSource(45))
	qLong := mkBank("qlong", randSeq(rng, 2000), randSeq(rng, 1800))
	opt := DefaultOptions()

	s := new(scratch)
	for i, q := range []*bank.Bank{q1, q2, qLong, q1} {
		got, err := align.Collect(func(emit align.Emit) (*Result, error) {
			return s.compareStream(context.Background(), db, q, opt, emit)
		})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Compare(db, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Alignments) == 0 && q != qLong {
			t.Fatalf("round %d: degenerate test, no alignments", i)
		}
		sameAlignments(t, i, got, ref)
	}
}

// TestSessionBothStrands: two both-strand rounds on one scratch — the
// strand passes share it, and the second round must still agree with
// Compare.
func TestSessionBothStrands(t *testing.T) {
	db, q := testBanks(43, 4, 4, 3, 500)
	opt := DefaultOptions()
	opt.BothStrands = true
	s := new(scratch)
	for i := 0; i < 2; i++ {
		got, err := align.Collect(func(emit align.Emit) (*Result, error) {
			return s.compareStream(context.Background(), db, q, opt, emit)
		})
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
		sameAlignments(t, i, got, ref)
	}
}

// TestConcurrentComparesMatchSerial (run under -race in CI): eight
// goroutines comparing against one db, on both strand settings, each
// produce the serial output byte for byte — every call holds its own
// scratch.
func TestConcurrentComparesMatchSerial(t *testing.T) {
	db, q := testBanks(41, 5, 5, 3, 600)
	opts := []Options{DefaultOptions(), DefaultOptions()}
	opts[1].BothStrands = true
	want := make([][]byte, len(opts))
	for i, o := range opts {
		want[i] = streamM8(t, db, q, func(emit align.Emit) (*Result, error) {
			return CompareStream(context.Background(), db, q, o, emit)
		})
		if len(want[i]) == 0 {
			t.Fatal("degenerate test: no alignments")
		}
	}

	const goroutines = 8
	const rounds = 4
	got := make([][][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var m8 []byte
				o := opts[(g+r)%len(opts)]
				if _, err := CompareStream(context.Background(), db, q, o, func(_ int, a []align.Alignment) error {
					m8 = tabular.AppendGroup(m8, a, db, q)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], m8)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for r, m8 := range got[g] {
			if !bytes.Equal(m8, want[(g+r)%len(opts)]) {
				t.Errorf("goroutine %d round %d: %d m8 bytes, serial %d", g, r, len(m8), len(want[(g+r)%len(opts)]))
			}
		}
	}
}

// TestCompareValidates: both entry points refuse invalid options.
func TestCompareValidates(t *testing.T) {
	db, q := testBanks(44, 2, 2, 1, 200)
	opt := DefaultOptions()
	opt.W = 2
	if _, err := Compare(db, q, opt); err == nil {
		t.Error("Compare accepted invalid options")
	}
	if _, err := CompareStream(context.Background(), db, q, opt, func(int, []align.Alignment) error { return nil }); err == nil {
		t.Error("CompareStream accepted invalid options")
	}
}
