package bank

import (
	"hash/crc64"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/fasta"
)

func mk(seqs ...string) *Bank {
	recs := make([]*fasta.Record, len(seqs))
	for i, s := range seqs {
		recs[i] = &fasta.Record{ID: string(rune('a' + i)), Seq: []byte(s)}
	}
	return New("test", recs)
}

func TestLayoutSentinels(t *testing.T) {
	b := mk("ACGT", "TT")
	// Expect: S ACGT S TT S  -> length 4+2+3 sentinels = 9
	if len(b.Data) != 9 {
		t.Fatalf("len(Data) = %d, want 9", len(b.Data))
	}
	for _, p := range []int{0, 5, 8} {
		if b.Data[p] != Sentinel {
			t.Errorf("Data[%d] = %#x, want sentinel", p, b.Data[p])
		}
		if b.SeqAt(int32(p)) != -1 {
			t.Errorf("SeqAt(%d) = %d, want -1", p, b.SeqAt(int32(p)))
		}
	}
}

func TestBasicAccessors(t *testing.T) {
	b := mk("ACGT", "TTG")
	if b.NumSeqs() != 2 {
		t.Fatalf("NumSeqs = %d", b.NumSeqs())
	}
	if b.TotalBases() != 7 {
		t.Errorf("TotalBases = %d, want 7", b.TotalBases())
	}
	if b.SeqLen(0) != 4 || b.SeqLen(1) != 3 {
		t.Errorf("SeqLen = %d,%d", b.SeqLen(0), b.SeqLen(1))
	}
	if b.SeqID(0) != "a" || b.SeqID(1) != "b" {
		t.Errorf("SeqID = %q,%q", b.SeqID(0), b.SeqID(1))
	}
	if got := string(dna.Decode(b.SeqCodes(0))); got != "ACGT" {
		t.Errorf("SeqCodes(0) decodes to %q", got)
	}
	if got := string(dna.Decode(b.SeqCodes(1))); got != "TTG" {
		t.Errorf("SeqCodes(1) decodes to %q", got)
	}
}

func TestSeqBoundsConsistent(t *testing.T) {
	b := mk("ACGT", "", "TT")
	for i := 0; i < b.NumSeqs(); i++ {
		s, e := b.SeqBounds(i)
		if int(e-s) != b.SeqLen(i) {
			t.Errorf("seq %d: bounds [%d,%d) but len %d", i, s, e, b.SeqLen(i))
		}
		for p := s; p < e; p++ {
			if b.SeqAt(p) != int32(i) {
				t.Errorf("SeqAt(%d) = %d, want %d", p, b.SeqAt(p), i)
			}
		}
	}
}

func TestEmptySequenceOccupiesSlot(t *testing.T) {
	b := mk("AC", "", "GT")
	if b.NumSeqs() != 3 {
		t.Fatalf("NumSeqs = %d, want 3", b.NumSeqs())
	}
	if b.SeqLen(1) != 0 {
		t.Errorf("SeqLen(1) = %d, want 0", b.SeqLen(1))
	}
	if b.SeqID(2) != "c" {
		t.Errorf("SeqID(2) = %q", b.SeqID(2))
	}
}

func TestCoord(t *testing.T) {
	b := mk("ACGT", "TTG")
	s0, _ := b.SeqBounds(0)
	seq, off := b.Coord(s0 + 2)
	if seq != 0 || off != 2 {
		t.Errorf("Coord = %d,%d want 0,2", seq, off)
	}
	s1, _ := b.SeqBounds(1)
	seq, off = b.Coord(s1)
	if seq != 1 || off != 0 {
		t.Errorf("Coord = %d,%d want 1,0", seq, off)
	}
}

func TestCoordPanicsOnSentinel(t *testing.T) {
	b := mk("AC")
	defer func() {
		if recover() == nil {
			t.Fatal("Coord(0) on sentinel did not panic")
		}
	}()
	b.Coord(0)
}

func TestAmbiguousBasesStoredInvalid(t *testing.T) {
	b := mk("ANGT")
	s, _ := b.SeqBounds(0)
	if b.Data[s+1] != dna.Invalid {
		t.Errorf("N encoded as %#x, want Invalid", b.Data[s+1])
	}
	if b.TotalBases() != 4 {
		t.Errorf("TotalBases = %d, want 4 (N counts)", b.TotalBases())
	}
}

func TestSentinelNeverEqualsNucleotideOrInvalid(t *testing.T) {
	for c := byte(0); c < dna.Alphabet; c++ {
		if Sentinel == c {
			t.Fatal("sentinel collides with nucleotide code")
		}
	}
	if Sentinel == dna.Invalid {
		t.Fatal("sentinel collides with dna.Invalid")
	}
}

func TestMbp(t *testing.T) {
	b := mk("ACGT")
	if got := b.Mbp(); got != 4e-6 {
		t.Errorf("Mbp = %v", got)
	}
}

func TestReverseComplementBank(t *testing.T) {
	b := mk("GATTACA", "CC")
	rc := b.ReverseComplement()
	if rc.NumSeqs() != 2 {
		t.Fatalf("NumSeqs = %d", rc.NumSeqs())
	}
	if got := string(dna.Decode(rc.SeqCodes(0))); got != "TGTAATC" {
		t.Errorf("rc seq0 = %q", got)
	}
	if got := string(dna.Decode(rc.SeqCodes(1))); got != "GG" {
		t.Errorf("rc seq1 = %q", got)
	}
	if rc.SeqID(0) != "a/rc" {
		t.Errorf("rc id = %q", rc.SeqID(0))
	}
	// double reverse complement restores the original bases
	rcrc := rc.ReverseComplement()
	if got := string(dna.Decode(rcrc.SeqCodes(0))); got != "GATTACA" {
		t.Errorf("rcrc seq0 = %q", got)
	}
}

func TestMemoryFootprintScales(t *testing.T) {
	small := mk("ACGT")
	big := mk("ACGTACGTACGTACGTACGTACGTACGTACGT")
	if small.MemoryFootprint() >= big.MemoryFootprint() {
		t.Errorf("footprints: small %d >= big %d", small.MemoryFootprint(), big.MemoryFootprint())
	}
	// The bank is the paper's SEQ and nothing else sized by N: one byte a
	// position plus the two bounds entries a sequence (the 4-byte INDEX
	// entry of the ≈ 5N estimate is package index's).
	for _, b := range []*Bank{small, big, mk("AC", "", "GT", "N")} {
		if f, max := b.MemoryFootprint(), len(b.Data)+8*b.NumSeqs()+64; f > max {
			t.Errorf("footprint %d above len(Data) + 8·NumSeqs + 64 = %d", f, max)
		}
	}
}

// TestNewAllocatesTheBankOnly gates bank.New's allocation at what an
// N-byte bank can cost: Data plus per-sequence bookkeeping. A second
// array sized by the positions (the 4-byte-a-position sequence table
// banks used to carry put New at ≈ 5N) fails it.
func TestNewAllocatesTheBankOnly(t *testing.T) {
	const numSeqs, seqLen = 1000, 450
	rng := rand.New(rand.NewSource(20))
	recs := make([]*fasta.Record, numSeqs)
	for i := range recs {
		seq := make([]byte, seqLen)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = &fasta.Record{ID: "r", Seq: seq}
	}
	var b *Bank
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b = New("alloc", recs)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	n := uint64(b.TotalBases())
	if max := n + n/4 + 128*numSeqs; got > max {
		t.Errorf("bank.New allocated %d bytes for N = %d bases in %d sequences, want ≤ 1.25·N + 128·NumSeqs = %d",
			got, n, numSeqs, max)
	}
}

// seqTable is the per-position sequence table banks used to carry,
// filled the way bank.New filled it: -1 on the leading sentinel, the
// record number on each of its bases, -1 on the sentinel closing every
// record (empty ones included) — the brute-force oracle for SeqAt.
func seqTable(recs []*fasta.Record) []int32 {
	table := []int32{-1}
	for i, r := range recs {
		for range r.Seq {
			table = append(table, int32(i))
		}
		table = append(table, -1)
	}
	return table
}

// TestSeqAtMatchesPositionTable: on random banks with empty records,
// one-base records and records of invalid bases, SeqAt and Coord at
// every position — first and last included — equal the per-position
// table, SeqAt is -1 exactly on the sentinels, and Coord panics there.
func TestSeqAtMatchesPositionTable(t *testing.T) {
	coordPanics := func(b *Bank, p int32) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		b.Coord(p)
		return false
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		recs := make([]*fasta.Record, 1+rng.Intn(12))
		for i := range recs {
			var n int
			switch rng.Intn(4) {
			case 0: // empty record
			case 1:
				n = 1
			default:
				n = 1 + rng.Intn(40)
			}
			seq := make([]byte, n)
			allInvalid := rng.Intn(5) == 0
			for j := range seq {
				seq[j] = "ACGTN"[rng.Intn(5)]
				if allInvalid {
					seq[j] = 'N'
				}
			}
			recs[i] = &fasta.Record{ID: "q", Seq: seq}
		}
		b := New("table", recs)
		table := seqTable(recs)
		if len(table) != len(b.Data) {
			t.Fatalf("round %d: table has %d positions, Data %d", round, len(table), len(b.Data))
		}
		for p, want := range table {
			p := int32(p)
			if got := b.SeqAt(p); got != want {
				t.Fatalf("round %d: SeqAt(%d) = %d, table says %d", round, p, got, want)
			}
			if (want == -1) != (b.Data[p] == Sentinel) {
				t.Fatalf("round %d: position %d: table %d but Data byte %#x", round, p, want, b.Data[p])
			}
			if want == -1 {
				if !coordPanics(b, p) {
					t.Fatalf("round %d: Coord(%d) on a sentinel did not panic", round, p)
				}
				continue
			}
			seq, off := b.Coord(p)
			if seq != want || b.starts[seq]+off != p {
				t.Fatalf("round %d: Coord(%d) = (%d,%d), table says sequence %d", round, p, seq, off, want)
			}
		}
	}
}

// Property: for every position of every random bank, SeqAt agrees with
// the bounds table, sentinel positions are exactly the complement of
// sequence spans, and Coord round-trips.
func TestPositionMapProperty(t *testing.T) {
	f := func(lens []uint8) bool {
		if len(lens) == 0 || len(lens) > 12 {
			return true
		}
		rng := rand.New(rand.NewSource(int64(len(lens))))
		recs := make([]*fasta.Record, len(lens))
		letters := []byte("ACGT")
		for i, L := range lens {
			seq := make([]byte, int(L)%40)
			for j := range seq {
				seq[j] = letters[rng.Intn(4)]
			}
			recs[i] = &fasta.Record{ID: "q", Seq: seq}
		}
		b := New("prop", recs)
		covered := make([]bool, len(b.Data))
		for i := 0; i < b.NumSeqs(); i++ {
			s, e := b.SeqBounds(i)
			for p := s; p < e; p++ {
				covered[p] = true
				seq, off := b.Coord(p)
				if seq != int32(i) || b.starts[seq]+off != p {
					return false
				}
			}
		}
		for p, c := range covered {
			isSent := b.Data[p] == Sentinel
			if c == isSent { // position must be exactly one of the two
				return false
			}
			if isSent != (b.SeqAt(int32(p)) == -1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSeqChecksums(t *testing.T) {
	b := mk("ACGT", "TTG", "ACGT")
	sums := b.SeqChecksums()
	if len(sums) != 3 {
		t.Fatalf("len(SeqChecksums) = %d, want 3", len(sums))
	}
	if sums[0] != sums[2] {
		t.Error("identical sequences must have identical checksums")
	}
	if sums[0] == sums[1] {
		t.Error("different sequences should have different checksums")
	}
	// Memoized: same backing slice on every call.
	if again := b.SeqChecksums(); &again[0] != &sums[0] {
		t.Error("SeqChecksums not memoized")
	}
	// Checksums are per-sequence content identity: a bank holding the
	// same sequences yields the same vector regardless of bank name.
	other := New("other-name", []*fasta.Record{
		{ID: "x", Seq: []byte("ACGT")},
		{ID: "y", Seq: []byte("TTG")},
		{ID: "z", Seq: []byte("ACGT")},
	})
	for i, s := range other.SeqChecksums() {
		if s != sums[i] {
			t.Errorf("checksum %d differs across content-identical banks", i)
		}
	}
}

func TestSeqChecksumsConcurrent(t *testing.T) {
	b := mk("ACGTACGTAC", "TTGTTG")
	done := make(chan []uint64, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- b.SeqChecksums() }()
	}
	first := <-done
	for i := 1; i < 8; i++ {
		if got := <-done; &got[0] != &first[0] {
			t.Fatal("concurrent SeqChecksums returned different slices")
		}
	}
}

// TestChecksum pins the whole-bank identity: CRC-64/ECMA over Data
// (the hash input the .orix file names and footers are frozen on),
// blind to the bank name, sensitive to sequence boundaries, and the
// same value from concurrent first calls.
func TestChecksum(t *testing.T) {
	b := mk("ACGT", "TTG")
	if want := crc64.Checksum(b.Data, crc64.MakeTable(crc64.ECMA)); b.Checksum() != want {
		t.Fatalf("Checksum = %016x, want CRC-64/ECMA of Data %016x", b.Checksum(), want)
	}
	renamed := New("other-name", []*fasta.Record{{ID: "x", Seq: []byte("ACGT")}, {ID: "y", Seq: []byte("TTG")}})
	if renamed.Checksum() != b.Checksum() {
		t.Error("checksum depends on the bank or record names")
	}
	if mk("ACG", "TTTG").Checksum() == b.Checksum() {
		t.Error("moving a sequence boundary kept the checksum")
	}
	fresh := mk("ACGTACGTAC", "TTGTTG")
	done := make(chan uint64, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- fresh.Checksum() }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; got != mk("ACGTACGTAC", "TTGTTG").Checksum() {
			t.Fatalf("concurrent Checksum = %016x, want the serial value", got)
		}
	}
}

// TestPrefixLen pins the append-boundary contract: the prefix covering
// k sequences ends one past the sentinel closing sequence k-1, and a
// bank built from the first k records has Data exactly equal to that
// prefix of the longer bank.
func TestPrefixLen(t *testing.T) {
	long := mk("ACGT", "TTG", "CCCC")
	short := mk("ACGT", "TTG")
	if got := long.PrefixLen(0); got != 1 {
		t.Errorf("PrefixLen(0) = %d, want 1 (leading sentinel)", got)
	}
	if got, want := long.PrefixLen(3), len(long.Data); got != want {
		t.Errorf("PrefixLen(NumSeqs) = %d, want len(Data) = %d", got, want)
	}
	k := short.NumSeqs()
	pl := long.PrefixLen(k)
	if pl != len(short.Data) {
		t.Fatalf("PrefixLen(%d) = %d, want len(short.Data) = %d", k, pl, len(short.Data))
	}
	for i := 0; i < pl; i++ {
		if long.Data[i] != short.Data[i] {
			t.Fatalf("Data prefix differs at %d", i)
		}
	}
	if long.Data[pl-1] != Sentinel {
		t.Error("prefix must end on a sentinel")
	}
	defer func() {
		if recover() == nil {
			t.Error("PrefixLen out of range did not panic")
		}
	}()
	long.PrefixLen(4)
}

// TestDataLimit: a bank's Data is addressed by int32 positions, so a
// Data of MaxData bytes is the largest Parse and New accept; one byte
// more is refused — checked on the length, not on a 2 GiB allocation.
func TestDataLimit(t *testing.T) {
	if MaxData != math.MaxInt32 {
		t.Fatalf("MaxData = %d, want the int32 limit", MaxData)
	}
	if err := checkDataLen(MaxData); err != nil {
		t.Errorf("a Data of MaxData bytes refused: %v", err)
	}
	if err := checkDataLen(MaxData + 1); err == nil {
		t.Error("a Data of MaxData+1 bytes accepted: its last positions wrap in int32")
	}
}
