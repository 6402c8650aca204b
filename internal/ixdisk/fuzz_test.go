package ixdisk

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bank"
	"repro/internal/index"
)

// The legacy fixtures are real files of retired versions, each written
// once by the last commit that had its writer, for legacyBank() at W=4.
// No reader may ever accept one.
const (
	legacyV2Fixture = "testdata/legacy-v2.orix"
	legacyV3Fixture = "testdata/legacy-v3.orix"
	legacyV4Fixture = "testdata/legacy-v4.orix"
)

// fuzzSeedFile builds the canonical fuzz fixtures: a small bank, its
// built index, and the valid .orix bytes Save produces for it in both
// shapes the readers distinguish — a multi-block file (merged into
// fresh arrays by either reader) and a single-block file (aliased in
// place by the mapped load). Every fuzz iteration validates arbitrary
// mutations of these frames against the same (bank, options) identity
// the seeds were saved under.
func fuzzSeedFile(tb testing.TB) (multi, single []byte, b *bank.Bank, opts index.Options) {
	tb.Helper()
	b = genBank(tb, "fz", 1024)
	opts = index.Options{W: 8}
	dir := tb.TempDir()
	save := func(name string, blockSeqs int) []byte {
		path := filepath.Join(dir, name+FileExt)
		saveTiled(tb, path, b, opts, blockSeqs)
		buf, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return buf
	}
	// Cut small so the multi-block seed's directory, inter-block
	// boundaries, and footer all get fuzz coverage.
	return save("multi", 2), save("single", b.NumSeqs()), b, opts
}

// addFrameSeeds seeds the corpus with both valid frames, the mutation
// classes the readers' validation ladder distinguishes — truncations at
// every framing boundary, bit-flips in the magic, version, header CRC,
// block headers and bodies, the footer directory and the trailer — and
// the legacy fixtures, as written and relabelled as the current version,
// which must be rejected every time (a relabelled v3 file has the right
// framing and four times the bytes its block headers account for, a
// relabelled v4 file one word a block too few).
func addFrameSeeds(f *testing.F, multi, single []byte) {
	f.Add([]byte{})
	for _, valid := range [][]byte{multi, single} {
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(append(bytes.Clone(valid), 0))
	}
	v2, err := os.ReadFile(legacyV2Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	relabelled := bytes.Clone(v2)
	binary.LittleEndian.PutUint32(relabelled[8:], formatVersion)
	f.Add(bytes.Clone(relabelled))
	binary.LittleEndian.PutUint32(relabelled[12:], headerSize)
	f.Add(relabelled)
	// Header CRC, first block header, block body, footer directory
	// region, and the fixed trailer (footerCRC, footerLen, endMagic).
	f.Add(multi[:headerSize])
	f.Add(multi[:headerSize+blockHdrSize])
	for _, off := range []int{8, 44, headerSize + 1, headerSize + blockHdrSize,
		len(multi) - trailerSize, len(multi) - 12, len(multi) - 8, len(multi) - dirEntSize - trailerSize} {
		mut := bytes.Clone(multi)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	for _, off := range []int{44, headerSize + 1, headerSize + blockHdrSize,
		len(single) - 12, len(single) - dirEntSize - trailerSize} {
		mut := bytes.Clone(single)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	// Last, so the seeds that predate the v3 fixture keep their numbers.
	v3, err := os.ReadFile(legacyV3Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Add(relabel(v3))
	v4, err := os.ReadFile(legacyV4Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add(relabel(v4))
}

// relabel returns the bytes of a file of a retired version with the
// same framing (v3 or v4) claiming the current version, the header CRC
// made good: every checksum in it then holds, and only what the block
// headers say about their own length gives it away.
func relabel(old []byte) []byte {
	out := bytes.Clone(old)
	binary.LittleEndian.PutUint32(out[8:], formatVersion)
	binary.LittleEndian.PutUint32(out[44:], crc32.Checksum(out[:44], crc32Table))
	return out
}

// loadInvariants asserts what a successful load must always deliver: a
// current-version input, and an index over the requesting bank whose
// occurrence lists are addressable and whose slots can each be proven or
// refused without a panic — the properties mid-parse corruption would
// break first.
func loadInvariants(t *testing.T, data []byte, p *index.Index, b *bank.Bank, opts index.Options) {
	t.Helper()
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		t.Fatalf("load accepted a version-%d file", v)
	}
	if p == nil || p.Bank != b {
		t.Fatal("load succeeded but returned an index of another bank")
	}
	if p.Options().Key() != opts.Key() {
		t.Fatalf("load succeeded with an index keyed %+v, requested %+v", p.Options().Key(), opts.Key())
	}
	indexed, total := 0, 0
	for _, q := range p.Parts() {
		indexed += len(q.Pos)
		n := 0
		for _, c := range q.Directory() {
			occ := q.Occ(c)
			if len(occ) == 0 {
				t.Fatalf("load succeeded but occupied code %d has no occurrences", c)
			}
			n += len(occ)
		}
		if n != len(q.Pos) {
			t.Fatalf("load succeeded with %d positions across a part's codes, %d in its flat array", n, len(q.Pos))
		}
		total += n
	}
	if p.Indexed != indexed || total != indexed {
		t.Fatalf("load succeeded with %d positions across codes and %d in the parts' flat arrays for an Indexed count of %d", total, indexed, p.Indexed)
	}
	// The window proofs of first reads stay inside the bank whatever a
	// loaded file holds; they may refuse it.
	for _, q := range p.Parts() {
		for i, c := range q.Directory() {
			if _, err := q.Prove(int32(i), c); err != nil && !p.Revoked() {
				t.Fatalf("a failed proof left the index unrevoked: %v", err)
			}
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the .orix reader over a read image.
// Any input may be rejected with an error; none may panic, and an
// accepted input must yield a structurally sound index.
func FuzzLoad(f *testing.F) {
	multi, single, b, opts := fuzzSeedFile(f)
	addFrameSeeds(f, multi, single)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f"+FileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, err := load(path, b, opts)
		if err != nil {
			return
		}
		loadInvariants(t, data, p, b, opts)
	})
}

// FuzzLoadMapped is FuzzLoad over a mapped image: the same
// no-panic/sound-on-success contract, plus the mapping must close
// cleanly whatever the parse did.
func FuzzLoadMapped(f *testing.F) {
	multi, single, b, opts := fuzzSeedFile(f)
	addFrameSeeds(f, multi, single)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f"+FileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, m, err := loadMapped(path, b, opts)
		if err != nil {
			return
		}
		loadInvariants(t, data, p, b, opts)
		if err := m.Close(); err != nil {
			t.Fatalf("closing mapping after successful load: %v", err)
		}
	})
}
