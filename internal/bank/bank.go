// Package bank implements the in-memory DNA bank representation of the
// ORIS algorithm (paper §2.1, Fig. 2): every sequence of a FASTA bank is
// 2-bit encoded and concatenated into one SEQ byte array, bracketed by
// sentinel bytes, together with the per-sequence bounds that translate a
// position back to its sequence.
//
// The paper stores a bank of N nucleotides in ≈5N bytes (1 byte/base in
// SEQ + a 4-byte INDEX entry per position). This package owns the SEQ
// part, N bytes plus 8 of bookkeeping per sequence; package index owns
// INDEX.
//
// It also owns reading FASTA (paper §2.1: "Bank indexing is directly
// performed from FASTA format input files"): Parse encodes the text
// straight into SEQ in one pass, with no per-record or per-line copy,
// and FromFile is os.ReadFile and Parse. New builds a bank from
// fasta.Records, the form the generators produce.
package bank

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/dna"
	"repro/internal/fasta"
)

// Sentinel is the byte that separates (and brackets) sequences inside
// Data. It is not a valid nucleotide code, is distinct from dna.Invalid,
// and never compares equal to a base — which is how an ungapped
// extension knows where its record ends: hsp.Extend takes no bounds and
// stops an arm at the first sentinel either bank shows it. Every Bank,
// reverse complements included, therefore keeps the invariant that
// Data[0] and Data[len(Data)-1] are sentinels and one sits between any
// two sequences. No per-position table repeats what the sentinels say:
// a position's sequence is found from the per-sequence bounds (SeqAt).
const Sentinel byte = 0xF0

// MaxData is the most bytes a bank's Data may hold: every position in
// it — the sequence bounds here, every index entry in package index — is
// an int32. Parse refuses a larger bank and New panics on one.
const MaxData = math.MaxInt32

// checkDataLen refuses a Data of n bytes, more than MaxData.
func checkDataLen(n int) error {
	if n > MaxData {
		return fmt.Errorf("bank: %d bytes of sequence and separators exceed the %d a bank can address", n, MaxData)
	}
	return nil
}

// Bank is an immutable, indexed-ready DNA bank.
type Bank struct {
	// Name labels the bank in outputs and experiment tables.
	Name string

	// Data holds sentinel-bracketed 2-bit codes:
	// [S] seq0 [S] seq1 [S] ... [S] seqK-1 [S].
	// Ambiguous input bases are stored as dna.Invalid.
	Data []byte

	// starts[i] is the offset in Data of the first base of sequence i;
	// ends[i] is one past its last base. Both ascend.
	starts, ends []int32

	ids   []string
	descs []string

	// totalBases is the number of bases (valid + ambiguous), i.e. the
	// bank size "N" of the paper, excluding sentinels.
	totalBases int

	// sumsOnce/seqSums memoize SeqChecksums and sumOnce/sum Checksum:
	// banks are immutable, so each content identity is computed at most
	// once.
	sumsOnce sync.Once
	seqSums  []uint64
	sumOnce  sync.Once
	sum      uint64
}

// New builds a bank from FASTA records. Records may be empty; an empty
// record still occupies a slot so record numbering matches the input
// file. It panics when the records take more than MaxData bytes of Data.
func New(name string, recs []*fasta.Record) *Bank {
	total := 0
	for _, r := range recs {
		total += len(r.Seq)
	}
	if err := checkDataLen(total + len(recs) + 1); err != nil {
		panic(err)
	}
	b := &Bank{
		Name:       name,
		Data:       make([]byte, 0, total+len(recs)+1),
		starts:     make([]int32, 0, len(recs)),
		ends:       make([]int32, 0, len(recs)),
		ids:        make([]string, 0, len(recs)),
		descs:      make([]string, 0, len(recs)),
		totalBases: total,
	}
	b.Data = append(b.Data, Sentinel)
	for _, r := range recs {
		b.starts = append(b.starts, int32(len(b.Data)))
		for _, c := range r.Seq {
			b.Data = append(b.Data, dna.EncodeByte(c))
		}
		b.ends = append(b.ends, int32(len(b.Data)))
		b.Data = append(b.Data, Sentinel)
		b.ids = append(b.ids, r.ID)
		b.descs = append(b.descs, r.Desc)
	}
	return b
}

// FromFile loads a FASTA file into a bank named name: the file is read
// whole and handed to Parse.
func FromFile(name, path string) (*Bank, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b, err := Parse(name, text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Parse reads FASTA text into a bank in one pass: lines are found with
// bytes.IndexByte and sequence bytes are encoded straight into Data,
// which is allocated once at its largest possible size, the text's
// length (the bytes of headers and line ends, a few percent, stay
// unused capacity) — no per-line, per-record or per-base allocation
// beyond one string per header. The rules are those of FASTA as the
// paper's banks use it:
//
//   - a line ends at '\n', and trailing '\r' bytes are dropped (CRLF);
//   - blank lines and ';' comment lines are skipped;
//   - '>' opens a record: the header's first space- or tab-delimited
//     token (after TrimSpace) is the ID, the trimmed rest the
//     description, and an empty header is named "unnamed";
//   - every other line is sequence data: space, tab, '\v' and '\f' are
//     dropped, A/C/G/T/U in either case encode to their codes, and any
//     other byte is an ambiguous base (dna.Invalid);
//   - sequence data before the first header is an error naming its
//     line, and so is text without a record;
//   - a bank whose Data would pass MaxData bytes is an error.
//
// A record with no sequence lines still occupies a slot, as in New.
func Parse(name string, text []byte) (*Bank, error) {
	// Every record costs a '>' and every sequence byte a text byte, so
	// the sentinel-bracketed Data fits in len(text)+1 bytes.
	recs := bytes.Count(text, []byte{'>'})
	b := &Bank{
		Name:   name,
		Data:   make([]byte, 1, len(text)+1),
		starts: make([]int32, 0, recs),
		ends:   make([]int32, 0, recs),
		ids:    make([]string, 0, recs),
		descs:  make([]string, 0, recs),
	}
	b.Data[0] = Sentinel
	data := b.Data
	for line := 1; len(text) > 0; line++ {
		l := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			l, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		for len(l) > 0 && l[len(l)-1] == '\r' {
			l = l[:len(l)-1]
		}
		switch {
		case len(l) == 0, l[0] == ';':
		case l[0] == '>':
			if len(b.starts) > 0 {
				b.ends = append(b.ends, int32(len(data)))
				data = append(data, Sentinel)
			}
			b.starts = append(b.starts, int32(len(data)))
			id, desc := splitHeader(string(l[1:]))
			b.ids = append(b.ids, id)
			b.descs = append(b.descs, desc)
		case len(b.starts) == 0:
			return nil, fmt.Errorf("fasta: line %d: sequence data before first header", line)
		default:
			for _, c := range l {
				if code := parseTable[c]; code != skipByte {
					data = append(data, code)
				}
			}
		}
	}
	if len(b.starts) == 0 {
		return nil, fmt.Errorf("bank: %s: no sequences", name)
	}
	// The bounds appended above wrapped if the bank is too large; it is
	// refused before any of them is used.
	if err := checkDataLen(len(data) + 1); err != nil {
		return nil, err
	}
	b.ends = append(b.ends, int32(len(data)))
	b.Data = append(data, Sentinel)
	b.totalBases = len(b.Data) - 1 - len(b.starts)
	return b, nil
}

// skipByte marks, in parseTable, the bytes a sequence line drops.
const skipByte = 0xFF

// parseTable maps a sequence-line byte to its code, or to skipByte for
// interior whitespace.
var parseTable = func() (t [256]byte) {
	for c := range t {
		t[c] = dna.EncodeByte(byte(c))
	}
	for _, c := range []byte{' ', '\t', '\v', '\f'} {
		t[c] = skipByte
	}
	return t
}()

// splitHeader splits a header line's content (after '>') into its ID —
// the first space- or tab-delimited token, "unnamed" when there is
// none — and the trimmed description.
func splitHeader(h string) (id, desc string) {
	h = strings.TrimSpace(h)
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	if h == "" {
		return "unnamed", ""
	}
	return h, ""
}

// NumSeqs returns the number of sequences in the bank.
func (b *Bank) NumSeqs() int { return len(b.starts) }

// TotalBases returns the total base count N (paper's bank size),
// excluding sentinels, including ambiguous bases.
func (b *Bank) TotalBases() int { return b.totalBases }

// Mbp returns the bank size in megabases, the unit of the paper's
// data-set and search-space tables.
func (b *Bank) Mbp() float64 { return float64(b.totalBases) / 1e6 }

// SeqID returns the FASTA identifier of sequence i.
func (b *Bank) SeqID(i int) string { return b.ids[i] }

// SeqDesc returns the FASTA description of sequence i.
func (b *Bank) SeqDesc(i int) string { return b.descs[i] }

// SeqLen returns the length of sequence i in bases.
func (b *Bank) SeqLen(i int) int { return int(b.ends[i] - b.starts[i]) }

// SeqBounds returns the half-open Data range [start,end) of sequence i.
func (b *Bank) SeqBounds(i int) (start, end int32) { return b.starts[i], b.ends[i] }

// SeqCodes returns the coded bases of sequence i (a view, not a copy).
func (b *Bank) SeqCodes(i int) []byte { return b.Data[b.starts[i]:b.ends[i]] }

// SeqAt returns the sequence index owning Data position p, or -1 if p is
// a sentinel position (the one an empty record leaves included): the
// last sequence starting at or before p owns it, or nothing does. It is
// a binary search, O(log NumSeqs) — its callers run once per HSP or per
// alignment, never per hit pair, so the bank keeps no per-position table.
func (b *Bank) SeqAt(p int32) int32 {
	i, found := slices.BinarySearch(b.starts, p)
	if !found {
		i--
	}
	if i < 0 || p >= b.ends[i] {
		return -1
	}
	return int32(i)
}

// seqSumTable is the CRC-64/ECMA polynomial of both bank checksums.
var seqSumTable = crc64.MakeTable(crc64.ECMA)

// Checksum returns the content identity of the whole bank: CRC-64/ECMA
// over its sentinel-bracketed coded Data. Sequence boundaries are part
// of Data (the sentinels), so two banks with equal checksums and
// lengths index identically; the display name is deliberately excluded.
// Like SeqChecksums it is computed once and memoized, so the store, the
// registry and the fleet's bank key share one O(N) pass per bank.
func (b *Bank) Checksum() uint64 {
	b.sumOnce.Do(func() { b.sum = crc64.Checksum(b.Data, seqSumTable) })
	return b.sum
}

// SeqChecksums returns the per-sequence content identity of the bank:
// CRC-64/ECMA over each sequence's coded bases, in bank order. The
// vector is computed once and memoized (banks are immutable), so
// repeated identity checks — the on-disk store consults it on every
// lookup — cost a slice read, not an O(N) pass. Callers must treat the
// returned slice as read-only.
//
// Together with PrefixLen this is what makes append-aware index reuse
// sound: if the first k checksums of two banks agree (and the prefix
// lengths agree), the first PrefixLen(k) bytes of their Data arrays are
// identical up to CRC collision — sequence boundaries are pinned by the
// per-sequence granularity — so Data coordinates below that boundary
// mean the same thing in both banks.
func (b *Bank) SeqChecksums() []uint64 {
	b.sumsOnce.Do(func() {
		sums := make([]uint64, b.NumSeqs())
		for i := range sums {
			sums[i] = crc64.Checksum(b.SeqCodes(i), seqSumTable)
		}
		b.seqSums = sums
	})
	return b.seqSums
}

// PrefixLen returns the length of the Data prefix covering the first k
// sequences, including the sentinel that closes sequence k-1 — the
// boundary from which an append-only extension scan must start. k may
// equal NumSeqs (the whole Data array); k=0 is the leading sentinel
// alone. Any window starting before PrefixLen(k) lies entirely inside
// the first k sequences, and any window starting at or after it lies
// entirely inside the appended suffix, because the sentinel at
// PrefixLen(k)-1 invalidates every straddling window.
func (b *Bank) PrefixLen(k int) int {
	if k < 0 || k > b.NumSeqs() {
		panic(fmt.Sprintf("bank %s: PrefixLen(%d) outside [0,%d]", b.Name, k, b.NumSeqs()))
	}
	if k == b.NumSeqs() {
		return len(b.Data)
	}
	return int(b.starts[k])
}

// Coord translates a Data position into (sequence index, 0-based offset
// within that sequence). It panics if p is a sentinel position, which
// would indicate a coordinate bug upstream.
func (b *Bank) Coord(p int32) (seq int32, off int32) {
	s := b.SeqAt(p)
	if s < 0 {
		panic(fmt.Sprintf("bank %s: Coord on sentinel position %d", b.Name, p))
	}
	return s, p - b.starts[s]
}

// MemoryFootprint returns the approximate resident bytes of the bank
// representation itself: SEQ at 1 byte per position plus the two bounds
// entries per sequence, N + 8·NumSeqs. Package index adds the paper's
// INDEX — 4 bytes per indexed position — and 8 per distinct seed code,
// and nothing else: ≈ 5N + 8·|Codes| for bank and index together, the
// paper's figure plus the directory (DESIGN.md §3).
func (b *Bank) MemoryFootprint() int {
	return len(b.Data) + 4*(len(b.starts)+len(b.ends))
}

// ReverseComplement returns a new bank holding the reverse complement
// of every sequence, in the same order, with IDs suffixed "/rc". This
// supports the complementary-strand search the paper lists as future
// work for SCORIS-N. Each sequence keeps its length and slot, so the
// sentinels and bounds stay where they are: the new bank is a copy of
// Data reversed and complemented sequence by sequence in place, sharing
// the (immutable) bounds and descriptions.
func (b *Bank) ReverseComplement() *Bank {
	rc := &Bank{
		Name:       b.Name + "/rc",
		Data:       slices.Clone(b.Data),
		starts:     b.starts,
		ends:       b.ends,
		ids:        make([]string, len(b.ids)),
		descs:      b.descs,
		totalBases: b.totalBases,
	}
	for i, s := range b.starts {
		dna.ReverseComplementInPlace(rc.Data[s:b.ends[i]])
		rc.ids[i] = b.ids[i] + "/rc"
	}
	return rc
}
