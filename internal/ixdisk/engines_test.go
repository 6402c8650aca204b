package ixdisk

import (
	"bytes"
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

// saveLoad round-trips a prepared index through one disk file, via the
// copying or the mapped reader.
func saveLoad(t *testing.T, dir string, p *index.Index, opts index.Options, mapped bool) *index.Index {
	t.Helper()
	path := filepath.Join(dir, p.Bank.Name+FileExt)
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	if mapped {
		loaded, m, err := loadMapped(path, p.Bank, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return loaded
	}
	loaded, err := load(path, p.Bank, opts)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDiskLoadedEquivalenceCore is the acceptance round trip for the
// ORIS engine: CompareWithIndex over disk-loaded indexes (both
// readers) emits byte-identical m8 output to a fresh-build Compare.
func TestDiskLoadedEquivalenceCore(t *testing.T) {
	b1, b2 := homologousBanks(t)
	opt := core.DefaultOptions()
	opt.Workers = 1

	ref, err := core.Compare(b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Alignments) == 0 {
		t.Fatal("degenerate test: no alignments")
	}
	want := m8Bytes(t, ref.Alignments, b1, b2)

	o1, o2 := opt.IndexOptions()
	p1, p2, err := core.Prepare(nil, b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		dir := t.TempDir()
		l1 := saveLoad(t, dir, p1, o1, mapped)
		l2 := saveLoad(t, dir, p2, o2, mapped)
		got, err := core.CompareWithIndex(l1, l2, opt)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if !bytes.Equal(want, m8Bytes(t, got.Alignments, b1, b2)) {
			t.Errorf("mapped=%v: m8 output differs from fresh build", mapped)
		}
	}
}

// TestDiskLoadedEquivalenceBlat does the same for the BLAT-style tile
// engine, whose non-overlapping tile index (SampleStep=W) exercises
// the sampled-index corner of the format.
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

	for _, mapped := range []bool{false, true} {
		loaded := saveLoad(t, t.TempDir(), pdb, opt.IndexOptions(), mapped)
		got, err := blat.CompareWithIndex(loaded, queries, opt)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if !bytes.Equal(want, m8Bytes(t, got.Alignments, db, queries)) {
			t.Errorf("mapped=%v: m8 output differs from fresh build", mapped)
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
