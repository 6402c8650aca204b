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
	"repro/internal/ixcache"
	"repro/internal/seed"
)

// The legacy fixtures are real files of retired versions, each written
// once by the last commit that had its writer, for legacyBank() at W=4.
// No reader may ever accept one.
const (
	legacyV2Fixture = "testdata/legacy-v2.orix"
	legacyV3Fixture = "testdata/legacy-v3.orix"
)

// fuzzSeedFile builds the canonical fuzz fixtures: a small bank, its
// built index, and the valid .orix bytes Save produces for it in both
// shapes the readers distinguish — a multi-block file (merged into
// fresh arrays by either reader) and a single-block file (aliased in
// place by LoadMapped). Every fuzz iteration validates arbitrary
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
// framing and four times the bytes its block headers account for).
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
	binary.LittleEndian.PutUint32(relabelled[12:], headerSizeV3)
	f.Add(relabelled)
	// Header CRC, first block header, block body, footer directory
	// region, and the fixed trailer (footerCRC, footerLen, endMagic).
	f.Add(multi[:headerSizeV3])
	f.Add(multi[:headerSizeV3+blockHdrSize])
	for _, off := range []int{8, 44, headerSizeV3 + 1, headerSizeV3 + blockHdrSize,
		len(multi) - trailerSize, len(multi) - 12, len(multi) - 8, len(multi) - dirEntSize - trailerSize} {
		mut := bytes.Clone(multi)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	for _, off := range []int{44, headerSizeV3 + 1, headerSizeV3 + blockHdrSize,
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
	f.Add(relabelV3(v3))
}

// relabelV3 returns a v3 file's bytes claiming the current version, the
// header CRC made good: every checksum in it then holds, and only what
// the block headers say about their own length gives it away.
func relabelV3(v3 []byte) []byte {
	out := bytes.Clone(v3)
	binary.LittleEndian.PutUint32(out[8:], formatVersion)
	binary.LittleEndian.PutUint32(out[44:], crc32.Checksum(out[:44], crc32Table))
	return out
}

// loadInvariants asserts what a successful load must always deliver: a
// current-version input, and a prepared index over the requesting bank whose
// occurrence lists are addressable — the properties mid-parse
// corruption would break first.
func loadInvariants(t *testing.T, data []byte, p *ixcache.Prepared, b *bank.Bank, opts index.Options) {
	t.Helper()
	if v := binary.LittleEndian.Uint32(data[8:]); v != formatVersion {
		t.Fatalf("load accepted a version-%d file", v)
	}
	if p == nil || p.Ix == nil || p.Bank != b {
		t.Fatal("load succeeded but returned an unusable Prepared")
	}
	if !p.MatchesOptions(opts) {
		t.Fatal("load succeeded with a Prepared that fails MatchesOptions")
	}
	parts := p.Ix.Parts()
	if parts.Indexed != len(parts.Pos) {
		t.Fatalf("load succeeded with %d positions for an Indexed count of %d", len(parts.Pos), parts.Indexed)
	}
	total := 0
	for _, c := range parts.Codes {
		occ := p.Ix.Occ(seed.Code(c))
		if len(occ) == 0 {
			t.Fatalf("load succeeded but occupied code %d has no occurrences", c)
		}
		total += len(occ)
	}
	if total != len(parts.Pos) {
		t.Fatalf("load succeeded with %d positions across codes, %d in the flat array", total, len(parts.Pos))
	}
}

// FuzzLoad feeds arbitrary bytes to the copying .orix reader. Any input
// may be rejected with an error; none may panic, and an accepted input
// must yield a structurally sound index.
func FuzzLoad(f *testing.F) {
	multi, single, b, opts := fuzzSeedFile(f)
	addFrameSeeds(f, multi, single)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f"+FileExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		p, err := Load(path, b, opts)
		if err != nil {
			return
		}
		loadInvariants(t, data, p, b, opts)
	})
}

// FuzzLoadMapped is FuzzLoad for the aliasing reader: the same
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
		p, m, err := LoadMapped(path, b, opts)
		if err != nil {
			return
		}
		loadInvariants(t, data, p, b, opts)
		if err := m.Close(); err != nil {
			t.Fatalf("closing mapping after successful load: %v", err)
		}
	})
}
