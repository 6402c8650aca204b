package bank

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dna"
	"repro/internal/fasta"
)

// sameBank reports how a differs from b, or "" when they hold the same
// bank: Data, bounds, IDs, descriptions and base counts.
func sameBank(a, b *Bank) string {
	switch {
	case !bytes.Equal(a.Data, b.Data):
		return fmt.Sprintf("Data %x, want %x", a.Data, b.Data)
	case !slices.Equal(a.starts, b.starts) || !slices.Equal(a.ends, b.ends):
		return fmt.Sprintf("bounds %v/%v, want %v/%v", a.starts, a.ends, b.starts, b.ends)
	case !slices.Equal(a.ids, b.ids) || !slices.Equal(a.descs, b.descs):
		return fmt.Sprintf("headers %q/%q, want %q/%q", a.ids, a.descs, b.ids, b.descs)
	case a.totalBases != b.totalBases:
		return fmt.Sprintf("bases %d, want %d", a.totalBases, b.totalBases)
	}
	return ""
}

// rec is a record literal for the tables below.
func rec(id, desc, seq string) *fasta.Record {
	return &fasta.Record{ID: id, Desc: desc, Seq: []byte(seq)}
}

// TestParse checks Parse against New, its oracle, on the inputs whose
// reading is a rule of its own; the FASTA format's other rules are
// internal/fasta's read tests. A bare '>' opens an "unnamed" record
// like a whitespace-only header does.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []*fasta.Record
		err      string
	}{
		{name: "bare header", in: ">\nAC\n", want: []*fasta.Record{rec("unnamed", "", "AC")}},
		{name: "bare header last", in: ">a\n>\n", want: []*fasta.Record{rec("a", "", ""), rec("unnamed", "", "")}},
		{name: "bare header only", in: ">", want: []*fasta.Record{rec("unnamed", "", "")}},
		{name: "header split", in: ">  id\tone  two \r\n", want: []*fasta.Record{rec("id", "one  two", "")}},
		{name: "ambiguous and interior CR", in: ">a\nANRu\rc\r\r\n", want: []*fasta.Record{rec("a", "", "ANRT\rC")}},
		{name: "gt inside sequence", in: ">a\nA>C\n", want: []*fasta.Record{rec("a", "", "A>C")}},
		{name: "blank-space line before header", in: " \n>a\n", err: "fasta: line 1: sequence data before first header"},
		{name: "CRLF line count", in: "\r\n;x\r\nAC\r\n", err: "fasta: line 3: sequence data before first header"},
		{name: "comments only", in: ";x\n\n\r\n", err: "bank: t: no sequences"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Parse("t", []byte(tc.in))
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := sameBank(b, New("t", tc.want)); d != "" {
				t.Error(d)
			}
		})
	}
}

// TestParseAllocatesTheBankOnly gates Parse at one pass: Data, the
// per-sequence tables and one string a header — nothing a line or a
// base.
func TestParseAllocatesTheBankOnly(t *testing.T) {
	const numSeqs = 1000
	text := estText(numSeqs, 450, 70)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Parse("alloc", text); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(numSeqs + 8); allocs > max {
		t.Errorf("Parse made %.0f allocations for %d records, want ≤ %.0f", allocs, numSeqs, max)
	}
}

// FuzzParse: no input panics Parse, an accepted one is a well-formed
// bank, and records written by fasta.Writer parse back to New of the
// same records — both the records an input parsed to and records made
// from the raw bytes.
func FuzzParse(f *testing.F) {
	f.Add([]byte(">r1 desc\nACGTACGT\n>r2\nTTTT\n"), 70)
	f.Add([]byte(">\n>a\r\n\r\n;c\nAC GT\tN\n"), 3)
	f.Add([]byte("ACGT\n>a\n"), 0)
	f.Add([]byte(""), 1)
	f.Fuzz(func(t *testing.T, raw []byte, width int) {
		if b, err := Parse("t", raw); err == nil {
			n := b.NumSeqs()
			if n == 0 || b.Data[0] != Sentinel || b.Data[len(b.Data)-1] != Sentinel ||
				len(b.Data) != b.TotalBases()+n+1 {
				t.Fatalf("malformed bank from %q", raw)
			}
			recs := make([]*fasta.Record, n)
			for i := range recs {
				recs[i] = &fasta.Record{ID: b.SeqID(i), Desc: b.SeqDesc(i), Seq: dna.Decode(b.SeqCodes(i))}
			}
			checkWriteParse(t, recs, width)
		}
		// Records from the raw bytes: one per '>'-separated chunk, its
		// bytes mapped onto bases, ambiguity codes and lower case.
		var recs []*fasta.Record
		for i, chunk := range bytes.Split(raw, []byte{'>'}) {
			seq := make([]byte, len(chunk))
			for j, c := range chunk {
				seq[j] = "ACGTNRYacgtu"[int(c)%12]
			}
			recs = append(recs, &fasta.Record{ID: fmt.Sprintf("r%d", i), Desc: string(seq[:min(len(seq), 3)]), Seq: seq})
		}
		checkWriteParse(t, recs, width)
	})
}

// checkWriteParse writes recs with a fasta.Writer of the given width and
// checks that Parse reads back New of recs.
func checkWriteParse(t *testing.T, recs []*fasta.Record, width int) {
	t.Helper()
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf)
	w.Width = width % 100
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("t", buf.Bytes())
	if err != nil {
		t.Fatalf("written records do not parse: %v\n%q", err, buf.Bytes())
	}
	if d := sameBank(got, New("t", recs)); d != "" {
		t.Fatalf("written records parse to another bank: %s\n%q", d, buf.Bytes())
	}
}

// TestReverseComplementMatchesRecords: the in-place reverse complement
// equals the bank New builds from the reverse-complemented records (the
// construction it replaces), on banks with ambiguous bases and empty
// records, and applied twice it gives back the original Data.
func TestReverseComplementMatchesRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		recs := make([]*fasta.Record, 1+rng.Intn(8))
		for i := range recs {
			seq := make([]byte, rng.Intn(4)*rng.Intn(30))
			for j := range seq {
				seq[j] = "ACGTNNR"[rng.Intn(7)]
			}
			recs[i] = &fasta.Record{ID: fmt.Sprintf("s%d", i), Desc: "d", Seq: seq}
		}
		b := New("rc", recs)
		want := make([]*fasta.Record, len(recs))
		for i, r := range recs {
			codes := dna.Encode(r.Seq)
			dna.ReverseComplementInPlace(codes)
			want[i] = &fasta.Record{ID: r.ID + "/rc", Desc: r.Desc, Seq: dna.Decode(codes)}
		}
		rc := b.ReverseComplement()
		if rc.Name != "rc/rc" {
			t.Fatalf("name = %q", rc.Name)
		}
		if d := sameBank(rc, New("rc/rc", want)); d != "" {
			t.Fatalf("round %d: %s", round, d)
		}
		if !bytes.Equal(rc.ReverseComplement().Data, b.Data) {
			t.Fatalf("round %d: RC(RC(b)).Data differs from b.Data", round)
		}
	}
}

// estText is FASTA text of count EST-shaped records of seqLen bases
// each, about 1 % ambiguous, written width bases a line.
func estText(count, seqLen, width int) []byte {
	rng := rand.New(rand.NewSource(11))
	recs := make([]*fasta.Record, count)
	for i := range recs {
		seq := make([]byte, seqLen)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
			if rng.Intn(100) == 0 {
				seq[j] = 'N'
			}
		}
		recs[i] = &fasta.Record{ID: fmt.Sprintf("est%06d", i), Desc: "synthetic EST clone", Seq: seq}
	}
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf)
	w.Width = width
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			panic(err)
		}
	}
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// BenchmarkBankLoad measures bank.FromFile — read the file, parse it
// into the bank — on a 2.6 MB EST-shaped file of 5,500 × 450 bp
// records in 70-column lines. B/op and allocs/op are the figures the
// one-pass loader is about: the file, Data and one string a header.
func BenchmarkBankLoad(b *testing.B) {
	text := estText(5500, 450, 70)
	path := filepath.Join(b.TempDir(), "est.fa")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromFile("est", path); err != nil {
			b.Fatal(err)
		}
	}
}
