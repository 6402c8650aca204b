package ixdisk

// The block-format behaviors — O(suffix) in-place appends, the one-way
// lineage, the metadata probe — hold the byte-identity invariant against
// cold builds throughout; hostile block footers are
// rejected by both readers; and files of the retired v2 layout are
// rejected at the version gate and healed by rebuild.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// legacyBank is the bank the committed v2 and v3 fixtures were saved
// from (under index.Options{W: 4}).
func legacyBank() (*bank.Bank, index.Options) {
	return bank.New("legacy", []*fasta.Record{
		{ID: "s0", Seq: []byte("ACGTTGCAAGGCTTAACGGATC")},
		{ID: "s1", Seq: []byte("GGATCCTTAGCAACGTA")},
	}), index.Options{W: 4}
}

// assertRetired pins the retirement of a format version against a real
// file of it: both readers and the probe reject it with ErrVersion —
// never parse it — and a store whose key path holds one pays exactly
// one store error and one build, then holds a current-format file.
func assertRetired(t *testing.T, fixture string) {
	t.Helper()
	b, opts := legacyBank()
	loadBoth(t, fixture, b, opts, ErrVersion)
	if info, err := Probe(fixture); !errors.Is(err, ErrVersion) {
		t.Fatalf("Probe of %s: %+v, %v — want ErrVersion", fixture, info, err)
	}

	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	exact := store.Path(b, opts)
	if err := os.WriteFile(exact, old, 0o644); err != nil {
		t.Fatal(err)
	}
	c := ixcache.New(4)
	c.SetStore(store)
	p := c.Get(b, opts)
	if c.Builds() != 1 || c.DiskErrors() != 1 || c.DiskHits() != 0 {
		t.Fatalf("%s at the key path: builds=%d diskErrs=%d diskHits=%d, want 1/1/0",
			fixture, c.Builds(), c.DiskErrors(), c.DiskHits())
	}
	if info, err := Probe(exact); err != nil || info.Version != formatVersion {
		t.Fatalf("store did not overwrite %s with a current-format file: %+v, %v", fixture, info, err)
	}
	loaded, err := Load(exact, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, p.Ix, loaded.Ix)
}

// TestLegacyV2Rejected: the monolithic v2 layout, against the file the
// last commit with a v2 writer wrote.
func TestLegacyV2Rejected(t *testing.T) { assertRetired(t, legacyV2Fixture) }

// TestLegacyV3Rejected: v3 — today's framing with the per-occurrence
// bounds sidecar — against the file the last commit that wrote v3
// saved. Its header, footer and block CRCs are all valid; only the
// version gate stands between it and a reader that would take its
// sixteen bytes per occurrence for four.
func TestLegacyV3Rejected(t *testing.T) {
	assertRetired(t, legacyV3Fixture)
	v3, err := os.ReadFile(legacyV3Fixture)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := filepath.Join(t.TempDir(), "relabelled"+FileExt)
	if err := os.WriteFile(relabelled, relabelV3(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	b, opts := legacyBank()
	loadBoth(t, relabelled, b, opts, ErrTruncated)
}

// TestPathStable pins the filename a (bank, options) key maps to, to
// the literal the previous release produced for the same key: the name
// is a hash of a frozen byte layout, so a store written before this
// change is still an exact hit after it.
func TestPathStable(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	b, opts := legacyBank()
	const want = "legacy-5593a86b4d3cbcb6.orix"
	if got := filepath.Base(store.Path(b, opts)); got != want {
		t.Errorf("Path = %s, want %s — every stored file would go cold", got, want)
	}
}

// TestV3AppendInPlace is the tentpole byte-level invariant: completing
// a stored v3 prefix appends exactly one block — the stored file's
// header and blocks are an unchanged byte prefix of the result, the
// directory grows by one entry, and the file moves to the grown bank's
// key path.
func TestV3AppendInPlace(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 600, 6)
	short := bank.New("db", recs[:4])
	grown := bank.New("db", recs)
	opts := index.Options{W: 8}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	oldPath := store.Path(short, opts)
	// 4 sequences cut every 2 → 2 stored blocks.
	saveTiled(t, oldPath, short, opts, 2)
	oldBytes, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	oldInfo, err := Probe(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldInfo.Blocks) != 2 {
		t.Fatalf("stored file has %d blocks, want 2", len(oldInfo.Blocks))
	}

	p, err := store.Load(grown, opts)
	if err != nil || p == nil {
		t.Fatalf("append load: %v, %v", p, err)
	}
	if store.Extends() != 1 || store.BlockAppends() != 1 {
		t.Errorf("Extends/BlockAppends = %d/%d, want 1/1", store.Extends(), store.BlockAppends())
	}
	assertIndexEqual(t, ixcache.Prepare(grown, opts).Ix, p.Ix)

	if _, err := os.Stat(oldPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("old path still exists after in-place append rename: %v", err)
	}
	newPath := store.Path(grown, opts)
	newBytes, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	newInfo, err := Probe(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(newInfo.Blocks) != len(oldInfo.Blocks)+1 {
		t.Errorf("append grew the directory from %d to %d blocks, want exactly one more",
			len(oldInfo.Blocks), len(newInfo.Blocks))
	}
	if !bytes.Equal(newBytes[:oldInfo.PayloadEnd], oldBytes[:oldInfo.PayloadEnd]) {
		t.Error("stored prefix bytes changed across the append")
	}
	suffixBytes := int64(len(newBytes)) - oldInfo.PayloadEnd
	if suffixBytes <= 0 || suffixBytes >= int64(len(oldBytes)) {
		t.Errorf("append wrote %d bytes beyond the old payload (old file: %d) — not O(suffix)",
			suffixBytes, len(oldBytes))
	}

	// The appended file exact-hits in a fresh store, byte-identical.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	grown2 := bank.New("db", recs)
	p2, err := store2.Load(grown2, opts)
	if err != nil || p2 == nil {
		t.Fatalf("warm load of appended file: %v, %v", p2, err)
	}
	if store2.Extends() != 0 {
		t.Errorf("second store extended (%d) instead of exact-hitting", store2.Extends())
	}
	assertIndexEqual(t, ixcache.Prepare(grown2, opts).Ix, p2.Ix)
}

// TestPreAppendBankIsCleanMiss: the lineage runs one way. Once a stored
// file has been grown in place, a request for the bank as it was before
// the append is a clean miss — one build, saved under its own key, an
// exact hit on the next load — and neither reads nor writes the grown
// file.
func TestPreAppendBankIsCleanMiss(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 600, 6)
	short := bank.New("db", recs[:4])
	grown := bank.New("db", recs)
	opts := index.Options{W: 8}
	store := openStore(t, dir)
	if err := store.Save(ixcache.Prepare(short, opts)); err != nil {
		t.Fatal(err)
	}
	if p, err := store.Load(grown, opts); err != nil || p == nil {
		t.Fatalf("append load: %v, %v", p, err)
	}
	if store.Extends() != 1 || store.BlockAppends() != 1 {
		t.Fatalf("Extends/BlockAppends = %d/%d, want 1/1", store.Extends(), store.BlockAppends())
	}
	grownPath := store.Path(grown, opts)
	grownBytes, err := os.ReadFile(grownPath)
	if err != nil {
		t.Fatal(err)
	}
	if info, err := Probe(grownPath); err != nil || len(info.Blocks) != 2 || info.Blocks[0].SeqHi != short.NumSeqs() {
		t.Fatalf("grown file: %+v, %v — want 2 blocks with the boundary at %d", info, err, short.NumSeqs())
	}
	loads := store.BlockLoads()

	// The pre-append bank, as a second request would hold it: a new value.
	c := ixcache.New(4)
	c.SetStore(store)
	again := bank.New("db", recs[:4])
	p := c.Get(again, opts)
	if c.Builds() != 1 || c.DiskHits() != 0 || c.DiskErrors() != 0 {
		t.Errorf("pre-append bank: builds/disk hits/errors = %d/%d/%d, want 1/0/0", c.Builds(), c.DiskHits(), c.DiskErrors())
	}
	if store.Extends() != 1 || store.BlockAppends() != 1 || store.BlockLoads() != loads {
		t.Errorf("the miss touched the lineage: Extends/BlockAppends/BlockLoads = %d/%d/%d, want 1/1/%d",
			store.Extends(), store.BlockAppends(), store.BlockLoads(), loads)
	}
	assertIndexEqual(t, ixcache.Prepare(again, opts).Ix, p.Ix)
	if info, err := Probe(store.Path(again, opts)); err != nil || info.NumSeqs != again.NumSeqs() || len(info.Blocks) != 1 {
		t.Errorf("the build was not saved under its own key: %+v, %v", info, err)
	}
	if now, err := os.ReadFile(grownPath); err != nil || !bytes.Equal(now, grownBytes) {
		t.Errorf("the grown file changed across the pre-append request (%v)", err)
	}

	// A fresh process exact-hits both.
	store2 := openStore(t, dir)
	c2 := ixcache.New(4)
	c2.SetStore(store2)
	c2.Get(bank.New("db", recs[:4]), opts)
	c2.Get(bank.New("db", recs), opts)
	if c2.Builds() != 0 || c2.DiskHits() != 2 || store2.Extends() != 0 {
		t.Errorf("second process: builds/disk hits/extends = %d/%d/%d, want 0/2/0", c2.Builds(), c2.DiskHits(), store2.Extends())
	}
}

// TestHostileV3Files: crafted corruptions of the v3 framing — footer,
// directory, blocks — are rejected by both readers with the right
// sentinel, and never crash.
func TestHostileV3Files(t *testing.T) {
	b := genBank(t, "hostile3", 2048)
	opts := index.Options{W: 8}
	// Multi-block file so directory attacks have room.
	save := func(t *testing.T) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "ix"+FileExt)
		if b.NumSeqs() < 2 {
			t.Fatal("need a multi-block file for hostile directory tests")
		}
		saveTiled(t, path, b, opts, 1)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, buf
	}

	footerStart := func(buf []byte) int {
		flen := binary.LittleEndian.Uint32(buf[len(buf)-12:])
		return len(buf) - int(flen)
	}

	cases := map[string]struct {
		mutate func(t *testing.T, buf []byte) []byte
		want   error
	}{
		"endMagicGone": {func(t *testing.T, buf []byte) []byte {
			buf[len(buf)-1] ^= 0x40
			return buf
		}, ErrTruncated},
		"truncatedLastBlock": {func(t *testing.T, buf []byte) []byte {
			// Drop bytes from the middle (the last block region), keeping
			// the footer: the directory then points past its blocks.
			fs := footerStart(buf)
			return append(buf[:fs-16:fs-16], buf[fs:]...)
		}, ErrTruncated},
		"footerCRCFlip": {func(t *testing.T, buf []byte) []byte {
			buf[footerStart(buf)+8] ^= 0x01 // bankCRC byte under the footer CRC
			return buf
		}, ErrChecksum},
		"dirOverlap": {func(t *testing.T, buf []byte) []byte {
			// Rewrite block 1's directory offset to overlap block 0, then
			// re-seal the footer CRC so only the structural check can
			// object.
			fs := footerStart(buf)
			ftr, err := parseFooterV3(buf[fs:], int64(len(buf)))
			if err != nil {
				t.Fatal(err)
			}
			numSeqs := int(ftr.numSeqs)
			entOff := fs + footerFixed + 8*numSeqs + dirEntSize // entry 1
			binary.LittleEndian.PutUint64(buf[entOff:], ftr.dir[0].offset)
			resealFooter(buf, fs)
			return buf
		}, ErrTruncated},
		"dirSeqGap": {func(t *testing.T, buf []byte) []byte {
			fs := footerStart(buf)
			ftr, err := parseFooterV3(buf[fs:], int64(len(buf)))
			if err != nil {
				t.Fatal(err)
			}
			entOff := fs + footerFixed + 8*int(ftr.numSeqs) + dirEntSize
			binary.LittleEndian.PutUint32(buf[entOff+16:], ftr.dir[1].seqLo+1)
			resealFooter(buf, fs)
			return buf
		}, ErrTruncated},
		"blockCRCFlip": {func(t *testing.T, buf []byte) []byte {
			buf[headerSizeV3+blockHdrSize] ^= 0x01 // first section byte of block 0
			return buf
		}, ErrChecksum},
		"blockRangeLie": {func(t *testing.T, buf []byte) []byte {
			// Block header disagrees with the (resealed) directory.
			buf[headerSizeV3+8] ^= 0x01 // block 0 seqLo
			return buf
		}, ErrChecksum},
		"headerCRCFlip": {func(t *testing.T, buf []byte) []byte {
			buf[16] ^= 0x01 // W field under the header CRC
			return buf
		}, ErrChecksum},
		"footerLenZero": {func(t *testing.T, buf []byte) []byte {
			binary.LittleEndian.PutUint32(buf[len(buf)-12:], 0)
			return buf
		}, ErrTruncated},
		"footerLenHuge": {func(t *testing.T, buf []byte) []byte {
			binary.LittleEndian.PutUint32(buf[len(buf)-12:], uint32(len(buf)+1024))
			return buf
		}, ErrTruncated},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path, buf := save(t)
			mutated := tc.mutate(t, buf)
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			loadBoth(t, path, b, opts, tc.want)
		})
	}
}

// resealFooter recomputes the footer CRC after a directory mutation so
// the structural validators — not the checksum — must catch the lie.
func resealFooter(buf []byte, fs int) {
	end := len(buf) - trailerSize
	binary.LittleEndian.PutUint32(buf[end:], crc32.Checksum(buf[fs:end], crc32Table))
}

// TestCraftedPositionsRejected: a file whose every checksum holds —
// written by someone who can compute CRCs — but whose first stored
// position is not a seed window of its slot's code. Neither reader may
// hand it to the engines, which extend from a position with no bounds
// but the bank's own sentinels.
func TestCraftedPositionsRejected(t *testing.T) {
	b := genBank(t, "crafted", 2048)
	opts := index.Options{W: 8}
	built := ixcache.Prepare(b, opts)
	_, r1End := b.SeqBounds(0)
	for name, pos := range map[string]int32{
		"straddles-sentinel": r1End - 3,
		"runs-off-the-bank":  int32(len(b.Data)) - 2,
		"another-code":       built.Ix.Pos[built.Ix.Offsets[1]],
	} {
		t.Run(name, func(t *testing.T) {
			path, buf := saveValid(t, b, opts)
			fs := len(buf) - int(binary.LittleEndian.Uint32(buf[len(buf)-12:]))
			ftr, err := parseFooterV3(buf[fs:], int64(len(buf)))
			if err != nil || len(ftr.dir) != 1 {
				t.Fatalf("want a single-block file: %v", err)
			}
			blk := buf[ftr.dir[0].offset : ftr.dir[0].offset+ftr.dir[0].length]
			nCodes := int(binary.LittleEndian.Uint32(blk[40:]))
			raw := blockHdrSize + 8*nCodes + 4*int(binary.LittleEndian.Uint64(blk[32:]))
			binary.LittleEndian.PutUint32(blk[blockHdrSize+8*nCodes:], uint32(pos)) // Pos[0]
			crc := crc32.Checksum(blk[:raw], crc32Table)
			binary.LittleEndian.PutUint32(blk[raw:], crc)
			binary.LittleEndian.PutUint32(buf[fs+footerFixed+8*int(ftr.numSeqs)+40:], crc)
			resealFooter(buf, fs)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			_, errL := Load(path, b, opts)
			_, m, errM := LoadMapped(path, b, opts)
			if m != nil {
				m.Close()
			}
			for which, err := range map[string]error{"Load": errL, "LoadMapped": errM} {
				if err == nil || !strings.Contains(err.Error(), "window") {
					t.Errorf("%s of a resealed file with a crafted position: %v, want the window check's rejection", which, err)
				}
			}
		})
	}
}

// TestMultiBlockMappedFallback: LoadMapped on a multi-block file
// returns a valid index that owns its arrays and a non-mapped Mapping —
// and gets there with one copy of the payload: the mapped blocks are
// merged straight into fresh arrays, where the copying reader first
// reads the file into a buffer and decodes each block out of it. The
// gap between the two routes' allocations is twice the file, and the
// merge itself allocates its three output arrays and nothing else sized
// by the index.
func TestMultiBlockMappedFallback(t *testing.T) {
	b := genBank(t, "mb", 1<<17)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	built := ixcache.Prepare(b, opts)
	saveTiled(t, path, b, opts, 1)
	if info, err := Probe(path); err != nil || len(info.Blocks) != 3 {
		t.Fatalf("stored file: %+v, %v — want 3 blocks", info, err)
	}
	allocated := func(load func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	copied := allocated(func() {
		if _, err := Load(path, b, opts); err != nil {
			t.Fatal(err)
		}
	})
	var p *ixcache.Prepared
	var m *Mapping
	mapped := allocated(func() {
		var err error
		if p, m, err = LoadMapped(path, b, opts); err != nil {
			t.Fatal(err)
		}
	})
	defer m.Close()
	if m.Mapped() {
		t.Error("multi-block file claimed a live mapping")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && nativeLittleEndian && mapped+3*uint64(fi.Size())/2 > copied {
		t.Errorf("LoadMapped of a %d-byte multi-block file allocated %d bytes, Load %d: the mapped route still copies each block before the merge",
			fi.Size(), mapped, copied)
	}
	if out := uint64(built.Ix.MemoryBytes()); mmapSupported && nativeLittleEndian && mapped > out+256<<10 {
		t.Errorf("LoadMapped of a 3-block file allocated %d bytes for %d bytes of index arrays: the merge allocates beyond its output",
			mapped, out)
	}
	assertIndexEqual(t, built.Ix, p.Ix)
	// Independence: the merged index survives file removal.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built.Ix, p.Ix)
}

// TestFreshSaveIsOneBlock: a saved index is the built index — one block
// however many sequences the bank has — so every fresh file takes the
// zero-copy route under mmap: the load allocates Offsets and the footer,
// nothing sized by Pos.
func TestFreshSaveIsOneBlock(t *testing.T) {
	b := bank.New("fresh", genRecs(t, 60, 6000))
	opts := index.Options{W: 8}
	built := ixcache.Prepare(b, opts)
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	if err := Save(path, built); err != nil {
		t.Fatal(err)
	}
	info, err := Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 1 || info.Blocks[0].SeqHi != b.NumSeqs() {
		t.Fatalf("a fresh save of %d sequences has %d blocks, want 1 over all of them", b.NumSeqs(), len(info.Blocks))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, m, err := LoadMapped(path, b, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if mmapSupported && nativeLittleEndian {
		if !m.Mapped() {
			t.Error("LoadMapped of a fresh save did not keep its mapping")
		}
		got, max := after.TotalAlloc-before.TotalAlloc, uint64(4*(len(built.Ix.Codes)+1)+256<<10)
		if got > max {
			t.Errorf("LoadMapped allocated %d bytes, want ≤ 4·(|Codes|+1) + 256 KB = %d (Pos alone is %d)",
				got, max, 4*len(built.Ix.Pos))
		}
	}
	assertIndexEqual(t, built.Ix, p.Ix)
	copied, err := Load(path, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built.Ix, copied.Ix)
}

// TestOlderSaveLayoutLoads: Save used to cut a fresh index every 4,096
// sequences. A file laid out that way — same format, so nothing marks
// it — still loads to Build's arrays by both routes, through the merge.
func TestOlderSaveLayoutLoads(t *testing.T) {
	const olderBlockSeqs = 4096
	recs := genRecs(t, 40, olderBlockSeqs+500)
	grown := bank.New("db", recs)
	opts := index.Options{W: 8}
	store := openStore(t, t.TempDir())
	path := store.Path(grown, opts)
	saveTiled(t, path, grown, opts, olderBlockSeqs)
	if info, err := Probe(path); err != nil || len(info.Blocks) != 2 {
		t.Fatalf("stored file: %+v, %v — want 2 blocks", info, err)
	}
	want := ixcache.Prepare(grown, opts).Ix
	copied, err := Load(path, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, want, copied.Ix)
	mapped, m, err := LoadMapped(path, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assertIndexEqual(t, want, mapped.Ix)
}

// TestProbeMetadata: the probe reports version, identity, and the block
// directory without payload access.
func TestProbeMetadata(t *testing.T) {
	b := genBank(t, "probe", 2048)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	saveTiled(t, path, b, opts, 1)
	info, err := Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != formatVersion {
		t.Errorf("version %d, want %d", info.Version, formatVersion)
	}
	if info.BankCRC != BankChecksum(b) || info.DataLen != int64(len(b.Data)) ||
		info.NumSeqs != b.NumSeqs() {
		t.Errorf("identity %+v does not match bank", info)
	}
	if !ixcache.SameKey(info.Opts, opts) {
		t.Errorf("options %+v do not key-match", info.Opts)
	}
	for i, sum := range b.SeqChecksums() {
		if info.SeqSums[i] != sum {
			t.Fatalf("SeqSums[%d] mismatch", i)
		}
	}
	if len(info.Blocks) != b.NumSeqs() {
		t.Errorf("probe found %d blocks, want %d (blockSeqs=1)", len(info.Blocks), b.NumSeqs())
	}
	if info.PayloadEnd >= fileSize(t, path) {
		t.Error("PayloadEnd not before the footer")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
