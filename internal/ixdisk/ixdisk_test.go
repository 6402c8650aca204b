package ixdisk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
)

// load is the exact load of a read image, as a DirStore with
// SetMapped(false) runs it.
func load(path string, b *bank.Bank, opts index.Options) (*index.Index, error) {
	ix, _, _, _, err := loadFile(path, b, opts, false, true)
	return ix, err
}

// loadMapped is the exact load of a mapped image where the host can
// alias one — a default DirStore's — and of a read image elsewhere.
func loadMapped(path string, b *bank.Bank, opts index.Options) (*index.Index, *Mapping, error) {
	ix, m, _, _, err := loadFile(path, b, opts, true, true)
	return ix, m, err
}

// genBank builds a deterministic multi-sequence bank exercising the
// format's edge content: ambiguous bases (unindexed), a poly-A
// low-complexity run (masked under dust), and a short record.
func genBank(t testing.TB, name string, n int) *bank.Bank {
	t.Helper()
	const alpha = "ACGT"
	buf := make([]byte, n)
	state := uint32(98765)
	for i := range buf {
		state = state*1664525 + 1013904223
		buf[i] = alpha[state>>30]
	}
	recs := []*fasta.Record{
		{ID: "r1", Seq: buf[:n/2]},
		{ID: "r2", Seq: append([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAANNNN"), buf[n/2:]...)},
		{ID: "r3", Seq: []byte("ACG")},
	}
	return bank.New(name, recs)
}

// saveTiled writes the index of (b, opts) to path as one block every
// blockSeqs sequences, each made the way production makes every block
// but the first: index.BuildBlock over its own range. It lays out the
// multi-block files tests need — the shape appends leave, and the shape
// Save gave every bank of more than 4,096 sequences before a fresh save
// became one block.
func saveTiled(tb testing.TB, path string, b *bank.Bank, opts index.Options, blockSeqs int) {
	tb.Helper()
	var cuts []int
	for lo := blockSeqs; lo < b.NumSeqs(); lo += blockSeqs {
		cuts = append(cuts, lo)
	}
	saveCut(tb, path, b, opts, cuts)
}

// saveCut writes the index of (b, opts) to path as one block between
// each two cuts (ascending sequence counts inside the bank), made as
// saveTiled makes its blocks.
func saveCut(tb testing.TB, path string, b *bank.Bank, opts index.Options, cuts []int) {
	tb.Helper()
	bounds := append(append([]int{0}, cuts...), b.NumSeqs())
	var blocks []index.BlockParts
	for i := 1; i < len(bounds); i++ {
		bp, err := index.BuildBlock(b, opts, bounds[i-1], bounds[i])
		if err != nil {
			tb.Fatal(err)
		}
		blocks = append(blocks, bp)
	}
	var buf bytes.Buffer
	if err := writeBlocksTo(&buf, b, opts.Key(), blocks); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// optionVariants covers the identity dimensions of the format.
func optionVariants() map[string]index.Options {
	return map[string]index.Options{
		"plain":      {W: 8},
		"dust":       {W: 8, Dust: true},
		"halfword":   {W: 7, SampleStep: 2},
		"dust+half":  {W: 8, Dust: true, SampleStep: 2},
		"everyThird": {W: 6, SampleStep: 3},
	}
}

// sameInts compares slices treating nil and empty as equal (the disk
// loaders return nil for empty sections).
func sameInts[T word](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// only returns the one part of a built index.
func only(ix *index.Index) *index.Part {
	if len(ix.Parts()) != 1 {
		panic("index has several parts")
	}
	return &ix.Parts()[0]
}

// directory lists the codes of every part of ix, ascending: the whole
// index's directory.
func directory(ix *index.Index) []seed.Code {
	var codes []seed.Code
	for _, q := range ix.Parts() {
		codes = append(codes, q.Directory()...)
	}
	slices.Sort(codes)
	return slices.Compact(codes)
}

// occurrences concatenates the occurrences of c over the parts of ix,
// in order: the whole index's.
func occurrences(ix *index.Index, c seed.Code) []int32 {
	var occ []int32
	for _, q := range ix.Parts() {
		occ = append(occ, q.Occ(c)...)
	}
	return occ
}

// samePart reports whether two parts are the same array for array —
// range, counters, directory, Offsets and Pos — and in the lookup
// structure derived from them, Dense() included.
func samePart(a, b *index.Part) bool {
	return a.SeqLo == b.SeqLo && a.SeqHi == b.SeqHi && a.DataLo == b.DataLo && a.DataHi == b.DataHi &&
		a.MaskedOut == b.MaskedOut && a.SampledOut == b.SampledOut &&
		a.Dense() == b.Dense() && sameInts(a.Directory(), b.Directory()) &&
		sameInts(a.Offsets, b.Offsets) && sameInts(a.Pos, b.Pos) &&
		sameInts(a.Top, b.Top) && slices.Equal(a.Bits, b.Bits) && sameInts(a.Rank, b.Rank)
}

// assertIndexEqual checks that a loaded index is indistinguishable from
// the built one in every observable way: the same bank, key and
// counters; for every code, the same occurrences, concatenated over the
// parts, and the same directory, the union of the parts'; each loaded
// part the block index.BuildBlock makes over its range, taken as a part,
// array for array and in its lookup structure, Dense() included; and,
// where both are one part — a one-block file and a built index — that
// part the built one array for array.
func assertIndexEqual(t *testing.T, built, loaded *index.Index) {
	t.Helper()
	dir := directory(built)
	if !sameInts(dir, directory(loaded)) {
		t.Error("directory differs after round trip")
	}
	for _, c := range dir {
		if !sameInts(occurrences(built, c), occurrences(loaded, c)) {
			t.Errorf("the occurrences of code %d differ after round trip", c)
			break
		}
	}
	opts := loaded.Options()
	blocks := make([]index.BlockParts, len(loaded.Parts()))
	for i, q := range loaded.Parts() {
		bp, err := index.BuildBlock(loaded.Bank, opts, q.SeqLo, q.SeqHi)
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		blocks[i] = bp
	}
	if ref, err := index.FromBlocks(loaded.Bank, opts, blocks); err != nil {
		t.Errorf("the parts' ranges do not tile the bank: %v", err)
	} else {
		for i := range ref.Parts() {
			if !samePart(&ref.Parts()[i], &loaded.Parts()[i]) {
				t.Errorf("part %d of %d differs from the block built over its range", i, len(ref.Parts()))
			}
		}
	}
	if len(built.Parts()) == 1 && len(loaded.Parts()) == 1 && !samePart(&built.Parts()[0], &loaded.Parts()[0]) {
		t.Error("the part of a one-block file differs from the built index's")
	}
	if built.Indexed != loaded.Indexed || built.MaskedOut != loaded.MaskedOut || built.SampledOut != loaded.SampledOut {
		t.Errorf("counters differ: built %d/%d/%d, loaded %d/%d/%d",
			built.Indexed, built.MaskedOut, built.SampledOut, loaded.Indexed, loaded.MaskedOut, loaded.SampledOut)
	}
	if built.W != loaded.W || built.Bank != loaded.Bank {
		t.Errorf("W/Bank differ: %d/%p vs %d/%p", built.W, built.Bank, loaded.W, loaded.Bank)
	}
	if built.Options().Key() != loaded.Options().Key() {
		t.Errorf("options key differs: %+v vs %+v", built.Options(), loaded.Options())
	}
}

func TestRoundTripLoad(t *testing.T) {
	b := genBank(t, "rt", 4096)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix"+FileExt)
			built := index.Build(b, opts)
			if err := Save(path, built); err != nil {
				t.Fatal(err)
			}
			loaded, err := load(path, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexEqual(t, built, loaded)
			if loaded.Options().Key() != opts.Key() {
				t.Error("loaded index is not keyed by its own options")
			}
		})
	}
}

func TestRoundTripLoadMapped(t *testing.T) {
	b := genBank(t, "rtm", 4096)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix"+FileExt)
			built := index.Build(b, opts)
			if err := Save(path, built); err != nil {
				t.Fatal(err)
			}
			loaded, m, err := loadMapped(path, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if canMap() && !m.Mapped() {
				t.Error("expected a real mapping on this platform")
			}
			assertIndexEqual(t, built, loaded)
			// Spot-exercise accessors over the aliased memory.
			for _, q := range loaded.Parts() {
				for _, c := range q.Directory() {
					if len(q.Occ(c)) == 0 {
						t.Fatalf("occupied code %d has empty occurrence slice", c)
					}
				}
			}
		})
	}
}

// TestLoadIsIndependentOfFile pins the read image's contract: the file
// is read whole at load, so deleting it afterwards must not affect the
// index.
func TestLoadIsIndependentOfFile(t *testing.T) {
	b := genBank(t, "ind", 2048)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	built := index.Build(b, opts)
	if err := Save(path, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(path, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built, loaded)
}

// TestReadLoadHoldsOneImage pins the read route's contract: a load that
// reads its file (a store under SetMapped(false), or a host that cannot
// map) holds the file as one buffer, its image, and every part aliases
// it as a mapped load's parts alias a mapping. On a 3-block file it
// allocates the file once beside what TestMultiBlockLoadIsMapped bounds
// a mapped load to, every part's Offsets and Pos lie inside the image,
// and the index is still Build's after the image is closed and the file
// unlinked: closing drops the buffer, and the garbage collector frees it
// only once no part holds it.
func TestReadLoadHoldsOneImage(t *testing.T) {
	b := genBank(t, "img", 1<<17)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	built := index.Build(b, opts)
	saveTiled(t, path, b, opts, 1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, m, _, _, err := loadFile(path, b, opts, false, true)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() || int64(len(m.data)) != fi.Size() || len(p.Parts()) != 3 {
		t.Fatalf("read load: mapped %v, a %d-byte image of a %d-byte file, %d parts — want a read image of the whole file and 3 parts",
			m.Mapped(), len(m.data), fi.Size(), len(p.Parts()))
	}
	lookup, proof := 0, 0
	for _, q := range p.Parts() {
		lookup += 4*len(q.Top) + 8*len(q.Bits) + 4*len(q.Rank)
		proof += 8 * ((q.NumCodes() + 63) / 64)
	}
	footer := 8*b.NumSeqs() + 64<<10
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(fi.Size())+uint64(lookup+proof+footer); got > max {
		t.Errorf("the read load of a %d-byte 3-block file allocated %d bytes, want ≤ file + lookup %d + proof bits %d + footer %d = %d",
			fi.Size(), got, lookup, proof, footer, max)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	hi := lo + uintptr(len(m.data))
	inImage := func(words []int32) bool {
		start := uintptr(unsafe.Pointer(unsafe.SliceData(words)))
		return len(words) == 0 || start >= lo && start+4*uintptr(len(words)) <= hi
	}
	for i, q := range p.Parts() {
		if !inImage(q.Offsets) || !inImage(q.Pos) {
			t.Errorf("part %d: Offsets or Pos lies outside the image: the read load copied it", i)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	assertIndexEqual(t, built, p)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built, p)
}

// TestBigEndianSwapsOnce takes a big-endian host's path on this one, by
// setting nativeLittleEndian to false. decodeBlock must then give every
// word of every section byte-reversed from the built value — each
// section swapped exactly once, and after the CRC check, which passed
// over the bytes as stored — and image must read the file, since a
// mapping cannot be swapped in place.
func TestBigEndianSwapsOnce(t *testing.T) {
	b := genBank(t, "be", 4096)
	opts := index.Options{W: 8}
	built := index.Build(b, opts)
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	if err := Save(path, built); err != nil {
		t.Fatal(err)
	}
	defer func(was bool) { nativeLittleEndian = was }(nativeLittleEndian)
	nativeLittleEndian = false

	want := built.Blocks()[0]
	var buf bytes.Buffer
	length, crc, err := encodeBlock(&buf, &want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlock(buf.Bytes(), dirEntry{
		length: uint64(length), crc: crc,
		seqLo: uint32(want.SeqLo), seqHi: uint32(want.SeqHi),
		dataLo: uint64(want.DataLo), dataHi: uint64(want.DataHi),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSwapped(t, "Codes", got.Codes, want.Codes)
	assertSwapped(t, "Offsets", got.Offsets, want.Offsets)
	assertSwapped(t, "Pos", got.Pos, want.Pos)

	x, err := openIndexFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer x.f.Close()
	m, err := x.image(true)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() {
		t.Error("a big-endian host mapped its image, which it must swap in place")
	}
}

// assertSwapped requires each word of got to be the matching word of
// want with its bytes reversed.
func assertSwapped[T word](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", name, len(got), len(want))
	}
	for i := range want {
		if uint32(got[i]) != bits.ReverseBytes32(uint32(want[i])) {
			t.Fatalf("%s[%d] = %#08x, want %#08x byte-reversed", name, i, uint32(got[i]), uint32(want[i]))
		}
	}
}

// saveValid writes a fresh valid file and returns its bytes and path.
func saveValid(t *testing.T, b *bank.Bank, opts index.Options) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	if err := Save(path, index.Build(b, opts)); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, buf
}

// loadBoth runs both readers and requires identical rejection class
// from each, returning one of the (identical-class) errors.
func loadBoth(t *testing.T, path string, b *bank.Bank, opts index.Options, want error) {
	t.Helper()
	_, errL := load(path, b, opts)
	p, m, errM := loadMapped(path, b, opts)
	if p != nil && m != nil {
		m.Close()
	}
	for which, err := range map[string]error{"read load": errL, "mapped load": errM} {
		if !errors.Is(err, want) {
			t.Errorf("%s: got error %v, want %v", which, err, want)
		}
		if err != nil && !strings.Contains(err.Error(), "ixdisk") {
			t.Errorf("%s: error lacks package context: %v", which, err)
		}
	}
}

func TestHostileFiles(t *testing.T) {
	b := genBank(t, "hostile", 2048)
	opts := index.Options{W: 8, Dust: true}
	other := genBank(t, "hostile", 2040) // same name, different content

	rewrite := func(t *testing.T, mutate func(buf []byte) []byte) string {
		t.Helper()
		path, buf := saveValid(t, b, opts)
		if err := os.WriteFile(path, mutate(append([]byte(nil), buf...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("empty", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { return nil })
		loadBoth(t, path, b, opts, ErrTruncated)
	})
	t.Run("truncated-header", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { return buf[:headerSize/2] })
		loadBoth(t, path, b, opts, ErrTruncated)
	})
	t.Run("truncated-body", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { return buf[:len(buf)-17] })
		loadBoth(t, path, b, opts, ErrTruncated)
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { return append(buf, 1, 2, 3) })
		loadBoth(t, path, b, opts, ErrTruncated)
	})
	t.Run("footer-longer-than-file", func(t *testing.T) {
		// The trailer claims a 64 MiB footer of a few-KB file: refused
		// before the claim can size the footer's read.
		size := 0
		path := rewrite(t, func(buf []byte) []byte {
			binary.LittleEndian.PutUint32(buf[len(buf)-12:], 64<<20)
			size = len(buf)
			return buf
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loadBoth(t, path, b, opts, ErrTruncated)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("loading a %d-byte file whose trailer claims a 64 MiB footer allocated %d bytes", size, d)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[0] ^= 0xFF; return buf })
		loadBoth(t, path, b, opts, ErrBadMagic)
	})
	t.Run("version-mismatch", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[8] = 99; return buf })
		loadBoth(t, path, b, opts, ErrVersion)
	})
	t.Run("checksum-corruption", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[headerSize+len(buf)/3] ^= 0x40; return buf })
		loadBoth(t, path, b, opts, ErrChecksum)
	})
	t.Run("key-mismatch-W", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 9, Dust: true}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-dust", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 8}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-sampling", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 8, Dust: true, SampleStep: 2}, ErrKeyMismatch)
	})
	// Key words no build writes, planted under a header CRC that still
	// holds, each loaded with the options the rest of its key names: the
	// key, not the CRC, refuses them. The key is header bytes 16–44: W,
	// step, the retired sampling phase, dust on/off, the dust window,
	// then the dust threshold's float64 bits.
	planted := func(t *testing.T, plant func(key []byte)) string {
		return rewrite(t, func(buf []byte) []byte {
			plant(buf[16:44])
			binary.LittleEndian.PutUint32(buf[44:], crc32.Checksum(buf[:44], crc32Table))
			return buf
		})
	}
	t.Run("key-phase-nonzero", func(t *testing.T) {
		path := planted(t, func(key []byte) { binary.LittleEndian.PutUint32(key[8:], 1) })
		loadBoth(t, path, b, opts, ErrKeyMismatch)
	})
	t.Run("key-dust-window-32", func(t *testing.T) {
		path := planted(t, func(key []byte) { binary.LittleEndian.PutUint32(key[16:], 32) })
		loadBoth(t, path, b, opts, ErrKeyMismatch)
	})
	t.Run("key-dust-threshold-1.5", func(t *testing.T) {
		path := planted(t, func(key []byte) { binary.LittleEndian.PutUint64(key[20:], math.Float64bits(1.5)) })
		loadBoth(t, path, b, opts, ErrKeyMismatch)
	})
	t.Run("key-dust-off-window-nonzero", func(t *testing.T) {
		path := planted(t, func(key []byte) {
			binary.LittleEndian.PutUint32(key[12:], 0)
			binary.LittleEndian.PutUint64(key[20:], 0)
		})
		loadBoth(t, path, b, index.Options{W: 8}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-bank", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, other, opts, ErrKeyMismatch)
	})
	t.Run("workers-not-part-of-key", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		alias := opts
		alias.Workers = 7
		if _, err := load(path, b, alias); err != nil {
			t.Errorf("Workers must not participate in the key: %v", err)
		}
	})
}

// TestDirStoreRoundTrip exercises the two-tier flow through real
// caches: a cold cache builds and writes back, a second cache (same
// process, fresh memory tier) loads from disk with zero builds, and a
// third store instance under a re-loaded bank value (content-identical,
// same name, different pointer) still hits — content identity, not
// pointer identity.
func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := genBank(t, "db", 4096)
	opts := index.Options{W: 8}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold := ixcache.New(4)
	cold.SetStore(store)
	p1 := cold.Get(b, opts)
	if cold.Builds() != 1 || cold.DiskHits() != 0 {
		t.Fatalf("cold cache: builds=%d diskHits=%d, want 1/0", cold.Builds(), cold.DiskHits())
	}
	if _, err := os.Stat(store.Path(b, opts)); err != nil {
		t.Fatalf("build was not written back: %v", err)
	}

	warm := ixcache.New(4)
	warm.SetStore(store)
	p2 := warm.Get(b, opts)
	if warm.Builds() != 0 || warm.DiskHits() != 1 {
		t.Fatalf("warm cache: builds=%d diskHits=%d, want 0/1", warm.Builds(), warm.DiskHits())
	}
	assertIndexEqual(t, p1, p2)

	// Fresh store + content-identical bank under a different pointer:
	// simulates a new process re-loading the same FASTA.
	b2 := genBank(t, "db", 4096)
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	proc2 := ixcache.New(4)
	proc2.SetStore(store2)
	p3 := proc2.Get(b2, opts)
	if proc2.Builds() != 0 || proc2.DiskHits() != 1 {
		t.Fatalf("second process: builds=%d diskHits=%d, want 0/1", proc2.Builds(), proc2.DiskHits())
	}
	if p3.Bank != b2 {
		t.Error("loaded index not rebound to the requesting bank value")
	}
}

// TestDirStoreHealsCorruptFile pins the fallback contract: a rejected
// file never fails a Get — the cache rebuilds, counts a store error,
// and the write-back replaces the bad file.
func TestDirStoreHealsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	b := genBank(t, "heal", 4096)
	opts := index.Options{W: 8}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seedCache := ixcache.New(4)
	seedCache.SetStore(store)
	built := seedCache.Get(b, opts)

	// Corrupt a byte mid-section.
	path := store.Path(b, opts)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[headerSize+len(buf)/2] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	c := ixcache.New(4)
	c.SetStore(store)
	p := c.Get(b, opts)
	if c.Builds() != 1 || c.DiskHits() != 0 || c.DiskErrors() != 1 {
		t.Fatalf("after corruption: builds=%d diskHits=%d diskErrs=%d, want 1/0/1",
			c.Builds(), c.DiskHits(), c.DiskErrors())
	}
	assertIndexEqual(t, built, p)

	// The write-back healed the file: a fresh cache now disk-hits.
	c2 := ixcache.New(4)
	c2.SetStore(store)
	c2.Get(b, opts)
	if c2.Builds() != 0 || c2.DiskHits() != 1 {
		t.Fatalf("store not healed: builds=%d diskHits=%d, want 0/1", c2.Builds(), c2.DiskHits())
	}
}

// TestDirStoreUnmappedMode covers a store whose loads read their image.
func TestDirStoreUnmappedMode(t *testing.T) {
	dir := t.TempDir()
	b := genBank(t, "copy", 2048)
	opts := index.Options{W: 8}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMapped(false)
	if err := store.Save(index.Build(b, opts)); err != nil {
		t.Fatal(err)
	}
	p, err := store.Load(b, opts)
	if err != nil || p == nil {
		t.Fatalf("unmapped load: %v, %v", p, err)
	}
	assertIndexEqual(t, index.Build(b, opts), p)
}

// TestDirStoreMissIsClean: no file for the key must be (nil, nil), not
// an error — the cache counts errors, and a miss is not one.
func TestDirStoreMissIsClean(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := store.Load(genBank(t, "none", 1024), index.Options{W: 8})
	if p != nil || err != nil {
		t.Fatalf("clean miss returned (%v, %v), want (nil, nil)", p, err)
	}
}

// TestSaveOverwritesAtomically: saving over an existing entry replaces
// it in one rename; the replaced file is immediately loadable.
func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	b := genBank(t, "ow", 2048)
	opts := index.Options{W: 8}
	for i := 0; i < 3; i++ {
		if err := Save(path, index.Build(b, opts)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := load(path, b, opts); err != nil {
		t.Fatal(err)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".orix-tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestDirStoreMemoizesLoads: repeated loads of one key (the LRU-above
// evict/reload pattern) return the already-validated index and keep
// the mapping count bounded by distinct keys, not reload count.
func TestDirStoreMemoizesLoads(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	b := genBank(t, "memo", 2048)
	opts := index.Options{W: 8}
	if err := store.Save(index.Build(b, opts)); err != nil {
		t.Fatal(err)
	}
	first, err := store.Load(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := store.Load(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p != first {
			t.Fatal("reload returned a new index instead of the memoized one")
		}
	}
	store.mu.Lock()
	nMaps := len(store.maps)
	store.mu.Unlock()
	if nMaps > 1 {
		t.Errorf("6 loads of one key hold %d mappings, want at most 1", nMaps)
	}
}
