package index

import (
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
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
		"dust":       {W: 8, Dust: dust.New(0, 0)},
		"halfword":   {W: 7, SampleStep: 2},
		"everyThird": {W: 7, SampleStep: 3},
		"dust+half":  {W: 8, Dust: dust.New(32, 1.5), SampleStep: 2},
	}
}

func samePartsT(t *testing.T, want, got *Index) {
	t.Helper()
	if want.Indexed != got.Indexed || want.MaskedOut != got.MaskedOut || want.SampledOut != got.SampledOut {
		t.Errorf("counters differ: want %d/%d/%d, got %d/%d/%d",
			want.Indexed, want.MaskedOut, want.SampledOut, got.Indexed, got.MaskedOut, got.SampledOut)
	}
	check := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Errorf("%s length: want %d, got %d", name, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s differs at %d: want %d, got %d", name, i, a[i], b[i])
				return
			}
		}
	}
	check("Offsets", want.Offsets, got.Offsets)
	check("Pos", want.Pos, got.Pos)
	wantDir, gotDir := want.Directory(), got.Directory()
	if len(wantDir) != len(gotDir) {
		t.Errorf("directory length: want %d, got %d", len(wantDir), len(gotDir))
	} else {
		for i := range wantDir {
			if wantDir[i] != gotDir[i] {
				t.Errorf("directory differs at %d", i)
				break
			}
		}
	}
}

// TestExtendPreservesAccessors spot-checks an appended-to index — the
// stored prefix's block plus one block built over the suffix — through
// the public accessors against the full rebuild.
func TestExtendPreservesAccessors(t *testing.T) {
	recs := extendRecs(2000)
	full := bank.New("b", recs)
	prefix := bank.New("b", recs[:3])
	opts := Options{W: 6, Dust: dust.New(0, 0)}
	want := Build(full, opts)
	tail, err := BuildBlock(full, opts, 3, full.NumSeqs())
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBlocks(full, opts, []BlockParts{Build(prefix, opts).Block(), tail})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range want.Directory() {
		w := want.Occ(seed.Code(c))
		g := got.Occ(seed.Code(c))
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
