package fasta

import (
	"bytes"
	"testing"
)

func TestWriterLineWrapping(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Width = 4
	if err := w.Write(&Record{ID: "x", Seq: []byte("ACGTACGTAC")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := ">x\nACGT\nACGT\nAC\n"
	if buf.String() != want {
		t.Errorf("got %q want %q", buf.String(), want)
	}
}

func TestWriterSingleLine(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Width = 0
	if err := w.Write(&Record{ID: "x", Desc: "d", Seq: []byte("ACGT")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ">x d\nACGT\n" {
		t.Errorf("got %q", buf.String())
	}
}

func TestHeaderReconstruction(t *testing.T) {
	r := &Record{ID: "a", Desc: "b c"}
	if r.Header() != "a b c" {
		t.Errorf("Header = %q", r.Header())
	}
	r2 := &Record{ID: "a"}
	if r2.Header() != "a" {
		t.Errorf("Header = %q", r2.Header())
	}
}
