package ixdisk

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/tabular"
)

// homologousBanks plants mutated copies of bank-1 sequences into
// bank 2 so every engine finds real alignments to compare.
func homologousBanks(t testing.TB) (*bank.Bank, *bank.Bank) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	const alpha = "ACGT"
	randSeq := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = alpha[rng.Intn(4)]
		}
		return s
	}
	mutate := func(s []byte) []byte {
		out := append([]byte(nil), s...)
		for i := range out {
			if rng.Float64() < 0.03 {
				out[i] = alpha[rng.Intn(4)]
			}
		}
		return out
	}
	var recs1, recs2 []*fasta.Record
	for i := 0; i < 6; i++ {
		s := randSeq(700)
		recs1 = append(recs1, &fasta.Record{ID: "a", Seq: s})
		if i < 4 {
			recs2 = append(recs2, &fasta.Record{ID: "b", Seq: mutate(s)})
		}
	}
	recs2 = append(recs2, &fasta.Record{ID: "b", Seq: randSeq(700)})
	return bank.New("db", recs1), bank.New("queries", recs2)
}

func m8Bytes(t *testing.T, as []align.Alignment, b1, b2 *bank.Bank) []byte {
	t.Helper()
	recs := make([]tabular.Record, len(as))
	for i := range as {
		recs[i] = tabular.FromAlignment(&as[i], b1, b2)
	}
	var buf bytes.Buffer
	if err := tabular.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// layouts are the block layouts a stored index of a bank of n
// sequences can have, as saveCut's cuts: one block (a fresh save), a
// head and a one-sequence tail (what an append leaves), and several
// small blocks.
func layouts(n int) map[string][]int {
	return map[string][]int{
		"one-block": nil,
		"appended":  {n - 1},
		"several":   {1, 2, n - 2},
	}
}

// saveLoad stores the index of bank b under opts in dir, laid out in
// the blocks cuts makes (saveCut), and loads it back from a read or a
// mapped image.
func saveLoad(t *testing.T, dir string, b *bank.Bank, opts index.Options, cuts []int, mapped bool) *index.Index {
	t.Helper()
	path := filepath.Join(dir, b.Name+FileExt)
	saveCut(t, path, b, opts, cuts)
	if mapped {
		loaded, m, err := loadMapped(path, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return loaded
	}
	loaded, err := load(path, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDiskLoadedEquivalenceCore is the acceptance round trip for the
// ORIS engine: CompareWithIndex over disk-loaded indexes emits
// byte-identical m8 output to a fresh-build Compare, with every count of
// core.Metrics the same, whatever blocks the stored files hold — one, a
// head and a one-sequence tail, or several small ones — through both
// readers, on one worker and two, on one strand and both. The windows
// a loaded index proves are what it holds of the codes both banks
// share, so they too are the same for every layout.
func TestDiskLoadedEquivalenceCore(t *testing.T) {
	b1, b2 := homologousBanks(t)
	counts := func(m core.Metrics) core.Metrics {
		m.IndexTime, m.Step2Time, m.Step3Time, m.Step4Time, m.WindowsProven = 0, 0, 0, 0, 0
		return m
	}
	for _, strand := range []core.Strand{core.PlusOnly, core.BothStrands} {
		for _, workers := range []int{1, 2} {
			opt := core.DefaultOptions()
			opt.Strand, opt.Workers = strand, workers
			ref, err := core.Compare(b1, b2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Alignments) == 0 {
				t.Fatal("degenerate test: no alignments")
			}
			want := m8Bytes(t, ref.Alignments, b1, b2)
			o1, o2 := opt.IndexOptions()
			proven := int64(-1) // the one-block load's, the first layout run
			for _, layout := range []string{"one-block", "appended", "several"} {
				for _, mapped := range []bool{false, true} {
					name := fmt.Sprintf("strand=%d/workers=%d/%s/mapped=%v", strand, workers, layout, mapped)
					dir := t.TempDir()
					l1 := saveLoad(t, dir, b1, o1, layouts(b1.NumSeqs())[layout], mapped)
					l2 := saveLoad(t, dir, b2, o2, layouts(b2.NumSeqs())[layout], mapped)
					if n := len(layouts(b1.NumSeqs())[layout]) + 1; len(l1.Parts()) != n {
						t.Fatalf("%s: bank 1 loaded as %d parts, want %d", name, len(l1.Parts()), n)
					}
					got, err := core.CompareWithIndex(l1, l2, opt)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bytes.Equal(want, m8Bytes(t, got.Alignments, b1, b2)) {
						t.Errorf("%s: m8 output differs from fresh build", name)
					}
					if counts(got.Metrics) != counts(ref.Metrics) {
						t.Errorf("%s: metrics %+v, fresh build %+v", name, counts(got.Metrics), counts(ref.Metrics))
					}
					if proven < 0 {
						proven = got.Metrics.WindowsProven
					}
					if got.Metrics.WindowsProven != proven || proven == 0 {
						t.Errorf("%s: %d windows proven, the one-block load %d", name, got.Metrics.WindowsProven, proven)
					}
				}
			}
		}
	}
}

// TestDiskLoadedEquivalenceBlat does the same for the BLAT-style tile
// engine, whose non-overlapping tile index (SampleStep=W) exercises
// the sampled-index corner of the format, and whose probe walks a
// tile's occurrences part by part.
func TestDiskLoadedEquivalenceBlat(t *testing.T) {
	db, queries := homologousBanks(t)
	opt := blat.DefaultOptions()

	pdb := index.Build(db, opt.IndexOptions())
	ref, err := blat.CompareWithIndex(pdb, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Alignments) == 0 {
		t.Fatal("degenerate test: no alignments")
	}
	want := m8Bytes(t, ref.Alignments, db, queries)
	counts := func(m blat.Metrics) blat.Metrics {
		m.IndexTime, m.ScanTime, m.Step3Time, m.Step4Time, m.WindowsProven = 0, 0, 0, 0, 0
		return m
	}

	proven := int64(-1)
	for _, workers := range []int{1, 2} {
		opts := opt.IndexOptions()
		opts.Workers = workers
		for _, layout := range []string{"one-block", "appended", "several"} {
			for _, mapped := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/%s/mapped=%v", workers, layout, mapped)
				loaded := saveLoad(t, t.TempDir(), db, opts, layouts(db.NumSeqs())[layout], mapped)
				got, err := blat.CompareWithIndex(loaded, queries, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(want, m8Bytes(t, got.Alignments, db, queries)) {
					t.Errorf("%s: m8 output differs from fresh build", name)
				}
				if counts(got.Metrics) != counts(ref.Metrics) {
					t.Errorf("%s: metrics %+v, fresh build %+v", name, counts(got.Metrics), counts(ref.Metrics))
				}
				if proven < 0 {
					proven = got.Metrics.WindowsProven
				}
				if got.Metrics.WindowsProven != proven || proven == 0 {
					t.Errorf("%s: %d windows proven, the one-block load %d", name, got.Metrics.WindowsProven, proven)
				}
			}
		}
	}
}

// TestDiskLoadedEquivalenceBlastn closes the three-engine matrix. The
// BLASTN baseline keeps no persistent bank index — its db-side cost is
// the scan itself — so the invariant for this engine is that a run on
// scan arrays reused from an earlier call is byte-identical to the
// first run.
func TestDiskLoadedEquivalenceBlastn(t *testing.T) {
	db, queries := homologousBanks(t)
	opt := blastn.DefaultOptions()

	ref, err := blastn.Compare(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Alignments) == 0 {
		t.Fatal("degenerate test: no alignments")
	}
	got, err := blastn.Compare(db, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m8Bytes(t, ref.Alignments, db, queries), m8Bytes(t, got.Alignments, db, queries)) {
		t.Error("second run's m8 output differs from the first")
	}
}
