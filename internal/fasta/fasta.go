// Package fasta holds the FASTA record and writer, the input format of
// both the ORIS pipeline and the BLASTN baseline (paper §2.1: "Bank
// indexing is directly performed from FASTA format input files").
//
// Reading is package bank's: bank.Parse turns FASTA text straight into
// a bank's coded SEQ array in one pass, with no Record in between (its
// doc states the format rules). Records are what the generators build
// and write — cmd/bankgen and package simulate — and what bank.New
// takes.
package fasta

import (
	"bufio"
	"io"
	"os"
)

// Record is one FASTA entry.
type Record struct {
	// ID is the first whitespace-delimited token of the header line,
	// without the leading '>'.
	ID string
	// Desc is the remainder of the header line (may be empty).
	Desc string
	// Seq is the raw sequence, ASCII, with whitespace removed.
	Seq []byte
}

// Header reconstructs the full header line content (without '>').
func (r *Record) Header() string {
	if r.Desc == "" {
		return r.ID
	}
	return r.ID + " " + r.Desc
}

// Len returns the sequence length in bases.
func (r *Record) Len() int { return len(r.Seq) }

// Writer emits FASTA records with a fixed line width.
type Writer struct {
	w     *bufio.Writer
	Width int // bases per sequence line; <=0 means a single line
}

// NewWriter returns a Writer with the conventional 70-column width.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), Width: 70}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	if _, err := w.w.WriteString(">" + rec.Header() + "\n"); err != nil {
		return err
	}
	seq := rec.Seq
	if w.Width <= 0 {
		if _, err := w.w.Write(seq); err != nil {
			return err
		}
		return w.w.WriteByte('\n')
	}
	for len(seq) > 0 {
		n := w.Width
		if n > len(seq) {
			n = len(seq)
		}
		if _, err := w.w.Write(seq[:n]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
		seq = seq[n:]
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteFile writes records to a FASTA file, creating or truncating it.
func WriteFile(path string, recs []*Record) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := NewWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return w.Flush()
}
