// Package tabular reads and writes the BLAST "-m 8" tabular alignment
// format, the output format of both SCORIS-N and the BLASTN baseline
// (paper §3.1: "It only displays the alignment features as it is done
// in the -m 8 option of BLASTN"). One line per alignment:
//
//	query subject %identity length mismatches gapopens qstart qend sstart send evalue bitscore
//
// Coordinates are 1-based and inclusive, matching BLAST.
package tabular

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/align"
	"repro/internal/bank"
)

// Record is one m8 line.
type Record struct {
	Query, Subject string
	PIdent         float64
	Length         int
	Mismatches     int
	GapOpens       int
	QStart, QEnd   int
	SStart, SEnd   int
	EValue         float64
	BitScore       float64
}

// FromAlignment converts an internal alignment into an m8 record. By
// the conventions of the paper's experiments (blastall -d A -i B),
// bank 1 is the subject database and bank 2 holds the queries.
func FromAlignment(a *align.Alignment, bank1, bank2 *bank.Bank) Record {
	_, sOff := bank1.Coord(a.S1)
	_, qOff := bank2.Coord(a.S2)
	r := Record{
		Query:      bank2.SeqID(int(a.Seq2)),
		Subject:    bank1.SeqID(int(a.Seq1)),
		PIdent:     100 * a.Identity(),
		Length:     int(a.Length),
		Mismatches: int(a.Mismatches),
		GapOpens:   int(a.GapOpens),
		QStart:     int(qOff) + 1,
		QEnd:       int(qOff) + int(a.E2-a.S2),
		SStart:     int(sOff) + 1,
		SEnd:       int(sOff) + int(a.E1-a.S1),
		EValue:     a.EValue,
		BitScore:   a.BitScore,
	}
	if a.Minus {
		// BLAST convention: a minus-strand hit swaps the query
		// coordinates so start > end.
		r.QStart, r.QEnd = r.QEnd, r.QStart
	}
	return r
}

// String renders the record as one m8 line (no trailing newline).
func (r Record) String() string {
	return fmt.Sprintf("%s\t%s\t%.2f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.1f",
		r.Query, r.Subject, r.PIdent, r.Length, r.Mismatches, r.GapOpens,
		r.QStart, r.QEnd, r.SStart, r.SEnd, formatEValue(r.EValue), r.BitScore)
}

// formatEValue imitates BLAST's e-value rendering closely enough for
// round-tripping: small values in scientific notation, moderate ones in
// short decimal.
func formatEValue(e float64) string {
	switch {
	case e == 0:
		return "0.0"
	case e < 1e-99:
		return strconv.FormatFloat(e, 'e', 2, 64)
	case e < 0.001:
		return strconv.FormatFloat(e, 'e', 2, 64)
	default:
		return strconv.FormatFloat(e, 'f', 3, 64)
	}
}

// AppendGroup renders one query sequence's alignments as m8 lines onto
// dst and returns the extended slice. It is the streaming counterpart
// of Write over FromAlignment: concatenating the groups of every bank-2
// sequence in bank order yields bytes identical to the buffered report,
// because display order is query-major (align.SortForDisplay).
func AppendGroup(dst []byte, alignments []align.Alignment, bank1, bank2 *bank.Bank) []byte {
	for i := range alignments {
		r := FromAlignment(&alignments[i], bank1, bank2)
		dst = append(dst, r.String()...)
		dst = append(dst, '\n')
	}
	return dst
}

// Parse parses one m8 line.
func Parse(line string) (Record, error) {
	f := strings.Fields(line)
	if len(f) != 12 {
		return Record{}, fmt.Errorf("tabular: %d fields, want 12: %q", len(f), line)
	}
	var r Record
	r.Query, r.Subject = f[0], f[1]
	var err error
	parseF := func(s string, dst *float64) {
		if err == nil {
			*dst, err = strconv.ParseFloat(s, 64)
		}
	}
	parseI := func(s string, dst *int) {
		if err == nil {
			*dst, err = strconv.Atoi(s)
		}
	}
	parseF(f[2], &r.PIdent)
	parseI(f[3], &r.Length)
	parseI(f[4], &r.Mismatches)
	parseI(f[5], &r.GapOpens)
	parseI(f[6], &r.QStart)
	parseI(f[7], &r.QEnd)
	parseI(f[8], &r.SStart)
	parseI(f[9], &r.SEnd)
	parseF(f[10], &r.EValue)
	parseF(f[11], &r.BitScore)
	if err != nil {
		return Record{}, fmt.Errorf("tabular: %q: %w", line, err)
	}
	return r, nil
}

// Write emits records, one per line.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for i := range recs {
		if _, err := bw.WriteString(recs[i].String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses all records from a reader, skipping blank and comment
// ('#') lines.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Record
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := Parse(line)
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// WriteFile writes records to a file.
func WriteFile(path string, recs []Record) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return Write(f, recs)
}

// ReadFile reads all records from a file.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
