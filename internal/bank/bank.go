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
package bank

import (
	"fmt"
	"hash/crc64"
	"slices"
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
	// validBases counts A/C/G/T only.
	validBases int

	// sumsOnce/seqSums memoize SeqChecksums: banks are immutable, so
	// the per-sequence content identity is computed at most once.
	sumsOnce sync.Once
	seqSums  []uint64
}

// New builds a bank from FASTA records. Records may be empty; an empty
// record still occupies a slot so record numbering matches the input
// file.
func New(name string, recs []*fasta.Record) *Bank {
	total := 0
	for _, r := range recs {
		total += len(r.Seq)
	}
	b := &Bank{
		Name:   name,
		Data:   make([]byte, 0, total+len(recs)+1),
		starts: make([]int32, 0, len(recs)),
		ends:   make([]int32, 0, len(recs)),
		ids:    make([]string, 0, len(recs)),
		descs:  make([]string, 0, len(recs)),
	}
	b.Data = append(b.Data, Sentinel)
	for _, r := range recs {
		b.starts = append(b.starts, int32(len(b.Data)))
		for _, c := range r.Seq {
			code := dna.EncodeByte(c)
			b.Data = append(b.Data, code)
			b.totalBases++
			if dna.IsValid(code) {
				b.validBases++
			}
		}
		b.ends = append(b.ends, int32(len(b.Data)))
		b.Data = append(b.Data, Sentinel)
		b.ids = append(b.ids, r.ID)
		b.descs = append(b.descs, r.Desc)
	}
	return b
}

// FromFile loads a FASTA file into a bank named after the file.
func FromFile(name, path string) (*Bank, error) {
	recs, err := fasta.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("bank: %s: no sequences", path)
	}
	return New(name, recs), nil
}

// NumSeqs returns the number of sequences in the bank.
func (b *Bank) NumSeqs() int { return len(b.starts) }

// TotalBases returns the total base count N (paper's bank size),
// excluding sentinels, including ambiguous bases.
func (b *Bank) TotalBases() int { return b.totalBases }

// ValidBases returns the number of unambiguous (ACGT) bases.
func (b *Bank) ValidBases() int { return b.validBases }

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

// seqSumTable is the CRC-64/ECMA polynomial shared by every bank
// checksum in the repository (ixdisk uses the same one for whole-bank
// content identity).
var seqSumTable = crc64.MakeTable(crc64.ECMA)

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
// work for SCORIS-N.
func (b *Bank) ReverseComplement() *Bank {
	recs := make([]*fasta.Record, b.NumSeqs())
	for i := range recs {
		codes := append([]byte(nil), b.SeqCodes(i)...)
		dna.ReverseComplementInPlace(codes)
		recs[i] = &fasta.Record{ID: b.ids[i] + "/rc", Desc: b.descs[i], Seq: dna.Decode(codes)}
	}
	return New(b.Name+"/rc", recs)
}

// Stats summarizes a bank for the paper's §3.2 data-set table.
type Stats struct {
	Name    string
	NumSeqs int
	Bases   int
	Mbp     float64
	GC      float64
}

// Summary computes data-set table statistics.
func (b *Bank) Summary() Stats {
	gc, _ := dna.GC(b.Data)
	return Stats{
		Name:    b.Name,
		NumSeqs: b.NumSeqs(),
		Bases:   b.totalBases,
		Mbp:     b.Mbp(),
		GC:      gc,
	}
}
