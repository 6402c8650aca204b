package fasta_test

// FASTA is read by bank.Parse, straight into a bank's coded SEQ array;
// these are the format's reading rules, checked on it. They live in an
// external test package because bank imports fasta.

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/fasta"
)

// parse reads in with bank.Parse and returns its records decoded back to
// ASCII (ambiguous bases as 'N').
func parse(in []byte) ([]*fasta.Record, error) {
	b, err := bank.Parse("t", in)
	if err != nil {
		return nil, err
	}
	return records(b), nil
}

func records(b *bank.Bank) []*fasta.Record {
	recs := make([]*fasta.Record, b.NumSeqs())
	for i := range recs {
		recs[i] = &fasta.Record{ID: b.SeqID(i), Desc: b.SeqDesc(i), Seq: dna.Decode(b.SeqCodes(i))}
	}
	return recs
}

func TestReadSingleRecord(t *testing.T) {
	recs, err := parse([]byte(">seq1 a test\nACGT\nTTGG\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != "seq1" || r.Desc != "a test" || string(r.Seq) != "ACGTTTGG" {
		t.Errorf("got %+v", r)
	}
}

func TestReadMultipleRecords(t *testing.T) {
	recs, err := parse([]byte(">a\nAC\n>b\nGT\n>c desc here\nTTTT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].ID != "a" || string(recs[0].Seq) != "AC" {
		t.Errorf("rec0 = %+v", recs[0])
	}
	if recs[1].ID != "b" || string(recs[1].Seq) != "GT" {
		t.Errorf("rec1 = %+v", recs[1])
	}
	if recs[2].ID != "c" || recs[2].Desc != "desc here" || string(recs[2].Seq) != "TTTT" {
		t.Errorf("rec2 = %+v", recs[2])
	}
}

func TestReadWindowsLineEndings(t *testing.T) {
	recs, err := parse([]byte(">a\r\nACGT\r\nGG\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].ID != "a" || string(recs[0].Seq) != "ACGTGG" {
		t.Errorf("rec = %+v", recs[0])
	}
}

func TestReadBlankInteriorLines(t *testing.T) {
	recs, err := parse([]byte(">a\nAC\n\n\nGT\n\n>b\n\nTT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "ACGT" || string(recs[1].Seq) != "TT" {
		t.Errorf("recs = %v", recs)
	}
}

func TestReadCommentLines(t *testing.T) {
	recs, err := parse([]byte(">a\n;comment\nACGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
}

func TestReadInteriorWhitespace(t *testing.T) {
	recs, err := parse([]byte(">a\nAC GT\tTT\v\fA\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGTTTA" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
}

func TestReadNoTrailingNewline(t *testing.T) {
	recs, err := parse([]byte(">a\nACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "ACGT" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
}

func TestReadEmptyInput(t *testing.T) {
	if _, err := bank.Parse("t", nil); err == nil || err.Error() != "bank: t: no sequences" {
		t.Errorf("err = %v, want bank: t: no sequences", err)
	}
}

func TestReadEmptySequence(t *testing.T) {
	recs, err := parse([]byte(">a\n>b\nAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Len() != 0 || recs[1].Len() != 2 {
		t.Errorf("recs = %+v", recs)
	}
}

func TestReadSequenceBeforeHeaderIsError(t *testing.T) {
	_, err := parse([]byte(";c\n\nACGT\n>a\nAC\n"))
	if err == nil {
		t.Fatal("expected error for sequence before header")
	}
	if want := "fasta: line 3: sequence data before first header"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestReadHeaderOnlyWhitespace(t *testing.T) {
	recs, err := parse([]byte(">   \nAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].ID != "unnamed" {
		t.Errorf("ID = %q, want unnamed", recs[0].ID)
	}
}

func TestRoundTripThroughFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.fa")
	in := []*fasta.Record{
		{ID: "s1", Desc: "first", Seq: []byte("ACGTACGTACGT")},
		{ID: "s2", Seq: []byte("TTTT")},
		{ID: "s3", Seq: []byte{}},
	}
	if err := fasta.WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	b, err := bank.FromFile("t", path)
	if err != nil {
		t.Fatal(err)
	}
	out := records(b)
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Desc != in[i].Desc || !bytes.Equal(out[i].Seq, in[i].Seq) {
			t.Errorf("record %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := bank.FromFile("t", filepath.Join(t.TempDir(), "nope.fa")); !os.IsNotExist(err) {
		t.Errorf("err = %v, want not-exist", err)
	}
}

func TestRoundTripRandomRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	letters := []byte("ACGTN")
	var recs []*fasta.Record
	for i := 0; i < 25; i++ {
		n := rng.Intn(300)
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = letters[rng.Intn(len(letters))]
		}
		recs = append(recs, &fasta.Record{ID: "r" + strings.Repeat("x", i%3), Seq: seq})
	}
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf)
	w.Width = 1 + rng.Intn(80)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(recs) {
		t.Fatalf("got %d records, want %d", len(out), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(out[i].Seq, recs[i].Seq) {
			t.Errorf("record %d sequence mismatch", i)
		}
	}
}

// Robustness: arbitrary byte soup must never panic the reader; it
// either parses or returns an error, and parsed records round-trip.
func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte(">;ACGTN \t\r\nacgt#|0123")
	for trial := 0; trial < 300; trial++ {
		raw := make([]byte, rng.Intn(200))
		for i := range raw {
			raw[i] = alphabet[rng.Intn(len(alphabet))]
		}
		recs, err := parse(raw)
		if err != nil {
			continue // rejected is fine; panicking is not
		}
		// Whatever parsed must survive a write/read cycle.
		var buf bytes.Buffer
		w := fasta.NewWriter(&buf)
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatalf("trial %d: write: %v", trial, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("trial %d: flush: %v", trial, err)
		}
		back, err := parse(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: reparse: %v", trial, err)
		}
		if len(back) != len(recs) {
			t.Fatalf("trial %d: %d records became %d", trial, len(recs), len(back))
		}
	}
}
