package index

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/seed"
)

// extendRecs builds deterministic records covering the format's edge
// content: ambiguous bases, a poly-A dust magnet, an empty record, and
// a record shorter than any W.
func extendRecs(n int) []*fasta.Record {
	const alpha = "ACGT"
	buf := make([]byte, n)
	state := uint32(424242)
	for i := range buf {
		state = state*1664525 + 1013904223
		buf[i] = alpha[state>>30]
	}
	return []*fasta.Record{
		{ID: "r0", Seq: buf[:n/3]},
		{ID: "r1", Seq: append([]byte(strings.Repeat("A", 40)+"NN"), buf[n/3:2*n/3]...)},
		{ID: "r2", Seq: []byte{}},
		{ID: "r3", Seq: []byte("ACG")},
		{ID: "r4", Seq: buf[2*n/3:]},
	}
}

func extendVariants() map[string]Options {
	return map[string]Options{
		"plain":      {W: 8},
		"dust":       {W: 8, Dust: true},
		"halfword":   {W: 7, SampleStep: 2},
		"everyThird": {W: 7, SampleStep: 3},
		"dust+half":  {W: 8, Dust: true, SampleStep: 2},
	}
}

// only returns the one part of an index that has one — a built index,
// or one loaded from a single block.
func only(ix *Index) *Part {
	if len(ix.parts) != 1 {
		panic("index has several parts")
	}
	return &ix.parts[0]
}

// samePartsT asserts that got holds what want — a built index, one part
// over the whole bank — holds: the same counters; parts in order that
// tile the bank; for every code, the occurrences concatenated over the
// parts equal to want's; and a union of the parts' directories that is
// want's directory. Alone it says nothing of how the parts are cut.
func samePartsT(t *testing.T, want, got *Index) {
	t.Helper()
	if want.Indexed != got.Indexed || want.MaskedOut != got.MaskedOut || want.SampledOut != got.SampledOut {
		t.Errorf("counters differ: want %d/%d/%d, got %d/%d/%d",
			want.Indexed, want.MaskedOut, want.SampledOut, got.Indexed, got.MaskedOut, got.SampledOut)
	}
	seq, data := 0, got.Bank.PrefixLen(0)
	union := map[seed.Code]bool{}
	for i := range got.parts {
		q := &got.parts[i]
		if q.ix != got || q.SeqLo != seq || q.DataLo != data || q.DataHi != got.Bank.PrefixLen(q.SeqHi) {
			t.Fatalf("part %d covers sequences [%d,%d), Data [%d,%d): not the next of a tiling from %d, %d",
				i, q.SeqLo, q.SeqHi, q.DataLo, q.DataHi, seq, data)
		}
		seq, data = q.SeqHi, q.DataHi
		for _, c := range q.Directory() {
			union[c] = true
		}
	}
	if seq != got.Bank.NumSeqs() {
		t.Fatalf("parts cover %d sequences of %d", seq, got.Bank.NumSeqs())
	}
	wantDir := only(want).Directory()
	if len(union) != len(wantDir) {
		t.Errorf("the parts' directories hold %d codes, want's %d", len(union), len(wantDir))
	}
	for _, c := range wantDir {
		if !union[c] {
			t.Errorf("code %d is in no part's directory", c)
			return
		}
		var occ []int32
		for i := range got.parts {
			occ = append(occ, got.parts[i].Occ(c)...)
		}
		if w := only(want).Occ(c); !slices.Equal(w, occ) {
			t.Errorf("code %d: the parts hold occurrences %v, want %v", c, occ, w)
			return
		}
	}
}

// TestExtendPreservesAccessors spot-checks an appended-to index — the
// stored prefix's block plus one block built over the suffix — through
// the public accessors against the full rebuild: a code's occurrences
// are its runs in the two parts, in order.
func TestExtendPreservesAccessors(t *testing.T) {
	recs := extendRecs(2000)
	full := bank.New("b", recs)
	prefix := bank.New("b", recs[:3])
	opts := Options{W: 6, Dust: true}
	want := Build(full, opts)
	tail, err := BuildBlock(full, opts, 3, full.NumSeqs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBlocks(full, opts, append(Build(prefix, opts).Blocks(), tail))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parts()) != 2 {
		t.Fatalf("%d parts, want the prefix's and the suffix's", len(got.Parts()))
	}
	for _, c := range only(want).Directory() {
		w := only(want).Occ(c)
		var g []int32
		for _, q := range got.Parts() {
			g = append(g, q.Occ(c)...)
		}
		if len(w) != len(g) {
			t.Fatalf("code %d: occ lengths %d vs %d", c, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("code %d: occ[%d] %d vs %d", c, i, w[i], g[i])
			}
		}
	}
}
