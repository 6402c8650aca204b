package ixdisk

// The block-format behaviors — O(suffix) in-place appends, the one-way
// lineage, the metadata probe — hold the byte-identity invariant against
// cold builds throughout; hostile block footers are
// rejected by both readers; and files of the retired v2, v3 and v4
// layouts are rejected at the version gate and healed by rebuild.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/simulate"
)

// legacyBank is the bank the committed v2, v3 and v4 fixtures were
// saved from (under index.Options{W: 4}).
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
	loaded, err := load(exact, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, p, loaded)
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
	if err := os.WriteFile(relabelled, relabel(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	b, opts := legacyBank()
	loadBoth(t, relabelled, b, opts, ErrTruncated)
}

// TestLegacyV4Rejected: v4 — today's framing with per-code counts where
// a block now keeps offsets — against the file the last commit that
// wrote v4 saved. Relabelled as the current version, with every
// checksum good, it is refused by its block lengths: one word a block
// short of what its headers imply.
func TestLegacyV4Rejected(t *testing.T) {
	assertRetired(t, legacyV4Fixture)
	v4, err := os.ReadFile(legacyV4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := filepath.Join(t.TempDir(), "relabelled"+FileExt)
	if err := os.WriteFile(relabelled, relabel(v4), 0o644); err != nil {
		t.Fatal(err)
	}
	b, opts := legacyBank()
	loadBoth(t, relabelled, b, opts, ErrTruncated)
}

// TestPathStable pins both frozen places an index.Key is written — the
// filename key a (bank, options) pair hashes to and the 48-byte header
// Save writes — to the literals an earlier release produced for the same
// keys: one with dust off and no sampling, one with dust on (its frozen
// window and threshold words) and half-word sampling, so a field the key
// packer shifts shows here instead of turning every stored file cold.
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

	sampled := index.Options{W: 4, Dust: true, SampleStep: 2}
	const wantSampled = "legacy-32e223caff88ccd6.orix"
	path := store.Path(b, sampled)
	if got := filepath.Base(path); got != wantSampled {
		t.Errorf("Path = %s, want %s — every stored file would go cold", got, wantSampled)
	}
	if err := Save(path, index.Build(b, sampled)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wantHeader = "4f52495349584442050000003000000004000000020000000000000001000000400000000000000000000040394c9ebb"
	if got := hex.EncodeToString(data[:headerSize]); got != wantHeader {
		t.Errorf("header = %s, want %s — every stored file would be rejected", got, wantHeader)
	}
}

// orixPinBank is a fixed simulated EST bank of n reads for the .orix
// byte pins.
func orixPinBank(n int) *bank.Bank {
	return simulate.EST(simulate.ESTSpec{
		Name: "pin", Seed: 77, NumSeqs: n, MeanLen: 500, GeneFraction: 0.45,
		Mut: simulate.Mutation{Sub: 0.035, Indel: 0.004}, PolyATailFraction: 0.15,
	}, simulate.NewPool(1001, 40, 900))
}

// TestFreshSaveBytesStable pins the whole file a fresh Save writes for
// one dense and one sparse index at W = 11 to the SHA-256 an earlier
// release produced. A dense index keeps no directory of its own: Block
// regenerates it from the presence bitmap, and these literals are what
// prove the file it writes is the one a stored directory wrote.
func TestFreshSaveBytesStable(t *testing.T) {
	for _, tc := range []struct {
		reads int
		dense bool
		want  string
	}{
		{60, false, "353bd5fb79598c847ac08f71d029d73e37841adca73eeb39f97f26f1d0c22e40"},
		{600, true, "c43e03846b86fdf5cd8030137eeb720a8d7f7b3b532250ce0897c575946d3509"},
	} {
		b := orixPinBank(tc.reads)
		ix := index.Build(b, index.Options{W: 11, Dust: true})
		if only(ix).Dense() != tc.dense {
			t.Fatalf("%d reads, %d codes: Dense() = %v, the row is meant to be %v", tc.reads, only(ix).NumCodes(), only(ix).Dense(), tc.dense)
		}
		path := filepath.Join(t.TempDir(), "pin.orix")
		if err := Save(path, ix); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
			t.Errorf("%d reads (dense %v): the saved file's SHA-256 is %s, want %s — every stored file would differ", tc.reads, tc.dense, got, tc.want)
		}
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
	assertIndexEqual(t, index.Build(grown, opts), p)

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
	assertIndexEqual(t, index.Build(grown2, opts), p2)
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
	if err := store.Save(index.Build(short, opts)); err != nil {
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
	assertIndexEqual(t, index.Build(again, opts), p)
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
			ftr, err := parseFooter(buf[fs:], int64(fs))
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
			ftr, err := parseFooter(buf[fs:], int64(fs))
			if err != nil {
				t.Fatal(err)
			}
			entOff := fs + footerFixed + 8*int(ftr.numSeqs) + dirEntSize
			binary.LittleEndian.PutUint32(buf[entOff+16:], ftr.dir[1].seqLo+1)
			resealFooter(buf, fs)
			return buf
		}, ErrTruncated},
		"blockCRCFlip": {func(t *testing.T, buf []byte) []byte {
			buf[headerSize+blockHdrSize] ^= 0x01 // first section byte of block 0
			return buf
		}, ErrChecksum},
		"blockRangeLie": {func(t *testing.T, buf []byte) []byte {
			// Block header disagrees with the (resealed) directory.
			buf[headerSize+8] ^= 0x01 // block 0 seqLo
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

// craftPos0 rewrites the first stored position of a single-block file's
// bytes to pos and makes every checksum good again: the file of someone
// who can compute CRCs.
func craftPos0(t *testing.T, buf []byte, pos int32) {
	t.Helper()
	fs := len(buf) - int(binary.LittleEndian.Uint32(buf[len(buf)-12:]))
	ftr, err := parseFooter(buf[fs:], int64(fs))
	if err != nil || len(ftr.dir) != 1 {
		t.Fatalf("want a single-block file: %v", err)
	}
	blk := buf[ftr.dir[0].offset : ftr.dir[0].offset+ftr.dir[0].length]
	nCodes := int(binary.LittleEndian.Uint32(blk[40:]))
	nOcc := int(binary.LittleEndian.Uint64(blk[32:]))
	raw := sectionsEnd(nCodes, nOcc)
	binary.LittleEndian.PutUint32(blk[raw-4*nOcc:], uint32(pos)) // Pos[0]
	crc := crc32.Checksum(blk[:raw], crc32Table)
	binary.LittleEndian.PutUint32(blk[raw:], crc)
	binary.LittleEndian.PutUint32(buf[fs+footerFixed+8*int(ftr.numSeqs)+40:], crc)
	resealFooter(buf, fs)
}

// TestCraftedPositionsRejected: a file whose every checksum holds —
// written by someone who can compute CRCs — but whose first stored
// position is not a seed window of its slot's code. No reader may hand
// it to the engines, which extend from a position with no bounds but
// the bank's own sentinels. A position whose window would leave the
// bank, or that breaks its slot's order, is refused at load by both
// readers. One inside the bank and in order loads, and is refused when
// a compare first reads its slot: the compare fails before it writes a
// row, the store removes the file, the cache counts a store error, and
// the next compare builds afresh and matches a fresh build.
func TestCraftedPositionsRejected(t *testing.T) {
	b := genBank(t, "crafted", 2048)
	opts := index.Options{W: 8}
	built := index.Build(b, opts)
	_, r1End := b.SeqBounds(0)
	for name, tc := range map[string]struct {
		pos    int32
		atLoad bool
	}{
		"straddles-sentinel": {r1End - 3, false},
		"runs-off-the-bank":  {int32(len(b.Data)) - 2, true},
		"another-code":       {only(built).Pos[only(built).Offsets[1]], true},
		"another-code-first": {1, false},
	} {
		t.Run(name, func(t *testing.T) {
			path, buf := saveValid(t, b, opts)
			craftPos0(t, buf, tc.pos)
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			_, errL := load(path, b, opts)
			_, m, errM := loadMapped(path, b, opts)
			if m != nil {
				m.Close()
			}
			for which, err := range map[string]error{"read load": errL, "mapped load": errM} {
				if tc.atLoad && (err == nil || !strings.Contains(err.Error(), "window")) {
					t.Errorf("%s of a resealed file with a crafted position: %v, want the structural check's rejection", which, err)
				}
				if !tc.atLoad && err != nil {
					t.Errorf("%s of a resealed file with a position inside the bank: %v, want a load and a refusal on first read", which, err)
				}
			}
			if tc.atLoad {
				return
			}
			for _, mapped := range []bool{false, true} {
				assertRefusedOnRead(t, b, opts, buf, mapped)
			}
		})
	}
}

// assertRefusedOnRead stores file, whose first slot holds a window that
// is not its code, as the stored index of (b, opts) and compares b with
// itself through a cache over the store, twice.
func assertRefusedOnRead(t *testing.T, b *bank.Bank, opts index.Options, file []byte, mapped bool) {
	t.Helper()
	store := openStore(t, t.TempDir())
	store.SetMapped(mapped)
	path := store.Path(b, opts)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	cache := ixcache.New(0)
	cache.SetStore(store)
	opt := core.DefaultOptions()
	opt.W, opt.Dust = opts.W, false

	ix1, ix2, err := core.Prepare(cache, b, b, opt)
	if err != nil || cache.DiskHits() != 1 || !ix1.Loaded() {
		t.Fatalf("the crafted file did not load: %v, %d disk hits", err, cache.DiskHits())
	}
	rows := 0
	_, err = core.CompareStreamWithIndex(context.Background(), ix1, ix2, opt, func(_ int, as []align.Alignment) error {
		rows += len(as)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "window") || rows != 0 {
		t.Fatalf("mapped %v: the compare over the crafted slot returned %v after %d rows, want the proof's error and none", mapped, err, rows)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("mapped %v: the crafted file survived its failed proof: %v", mapped, err)
	}

	ix1, ix2, err = core.Prepare(cache, b, b, opt)
	if err != nil || ix1.Loaded() || cache.Builds() != 1 || cache.DiskErrors() != 1 {
		t.Fatalf("mapped %v: after the failed proof, %v, loaded %v, %d builds, %d store errors — want one fresh build and one store error",
			mapped, err, ix1.Loaded(), cache.Builds(), cache.DiskErrors())
	}
	got, err := core.CompareWithIndex(ix1, ix2, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Compare(b, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m8Bytes(t, got.Alignments, b, b), m8Bytes(t, want.Alignments, b, b)) {
		t.Errorf("mapped %v: the rebuilt index's output differs from a fresh build's", mapped)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("mapped %v: the rebuilt index was not saved back: %v", mapped, err)
	}
}

// TestMultiBlockLoadIsMapped: the mapped load of a multi-block file is
// the mapped load of a one-block file, block by block — each block is a
// part of the index, aliased in place, and the Mapping stays live. It
// allocates what TestFreshSaveIsOneBlock bounds a one-block load to,
// summed over the parts: each part's lookup structure and proof bits,
// and the footer — nothing sized by Pos, no copy of a code list or of
// offsets. The read load allocates the file once, as its image, so the
// gap between the two routes' allocations is at least the file. The
// index outlives its file's name: the mapping survives an unlink, as it
// does the GC's.
func TestMultiBlockLoadIsMapped(t *testing.T) {
	b := genBank(t, "mb", 1<<17)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	built := index.Build(b, opts)
	saveTiled(t, path, b, opts, 1)
	if info, err := Probe(path); err != nil || len(info.Blocks) != 3 {
		t.Fatalf("stored file: %+v, %v — want 3 blocks", info, err)
	}
	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	readLoad := allocated(func() {
		if _, err := load(path, b, opts); err != nil {
			t.Fatal(err)
		}
	})
	var p *index.Index
	var m *Mapping
	mapped := allocated(func() {
		var err error
		if p, m, err = loadMapped(path, b, opts); err != nil {
			t.Fatal(err)
		}
	})
	defer m.Close()
	if len(p.Parts()) != 3 {
		t.Fatalf("a 3-block file loaded as %d parts", len(p.Parts()))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if canMap() {
		if !m.Mapped() {
			t.Error("the mapped load of a multi-block file did not keep its mapping")
		}
		lookup, proof := 0, 0
		for _, q := range p.Parts() {
			lookup += 4*len(q.Top) + 8*len(q.Bits) + 4*len(q.Rank)
			proof += 8 * ((q.NumCodes() + 63) / 64)
		}
		footer := 8*b.NumSeqs() + 64<<10
		if max := uint64(lookup + proof + footer); mapped > max {
			t.Errorf("the mapped load of a 3-block file allocated %d bytes, want ≤ lookup %d + proof bits %d + footer %d = %d (Pos alone is %d)",
				mapped, lookup, proof, footer, max, 4*p.Indexed)
		}
		if mapped+uint64(fi.Size()) > readLoad {
			t.Errorf("the mapped load of a %d-byte multi-block file allocated %d bytes, the read load %d: the mapped route copies blocks",
				fi.Size(), mapped, readLoad)
		}
	}
	assertIndexEqual(t, built, p)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built, p)
}

// TestMappedIndexSurvivesItsAppend pins what lets an extended index keep
// its stored blocks mapped: the append that completes a file writes at
// the old footer's offset and only extends the file, so no byte a part
// aliases is rewritten — not by the append of the extension itself, and
// not by a later one that grows the same file again while the index is
// still served. After each, every position of every part is read back,
// and every code's occurrences are still Build's.
func TestMappedIndexSurvivesItsAppend(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 600, 7)
	opts := index.Options{W: 8}
	store := openStore(t, dir)
	short := bank.New("db", recs[:4])
	saveTiled(t, store.Path(short, opts), short, opts, 2)

	readAll := func(t *testing.T, p *index.Index) {
		t.Helper()
		sum := int64(0)
		for _, q := range p.Parts() {
			for _, pos := range q.Pos {
				sum += int64(pos)
			}
		}
		if sum == 0 && p.Indexed > 0 {
			t.Fatal("every position read back as 0")
		}
	}
	grown := bank.New("db", recs[:6])
	p, err := store.Load(grown, opts)
	if err != nil || p == nil {
		t.Fatalf("append load: %v, %v", p, err)
	}
	if store.Extends() != 1 || store.BlockAppends() != 1 || len(p.Parts()) != 3 {
		t.Fatalf("Extends/BlockAppends = %d/%d, %d parts — want 1/1, the 2 stored blocks and the suffix's",
			store.Extends(), store.BlockAppends(), len(p.Parts()))
	}
	store.mu.Lock()
	maps := slices.Clone(store.maps)
	store.mu.Unlock()
	if canMap() && (len(maps) != 1 || !maps[0].Mapped()) {
		t.Fatal("the extended index's mapping is not held by the store")
	}
	readAll(t, p)
	assertIndexEqual(t, index.Build(grown, opts), p)

	// Grow the file that backs p once more, through another store, while
	// p is alive.
	regrown := bank.New("db", recs)
	other := openStore(t, dir)
	if q, err := other.Load(regrown, opts); err != nil || q == nil || other.BlockAppends() != 1 {
		t.Fatalf("second append: %v, %v, %d appends", q, err, other.BlockAppends())
	}
	readAll(t, p)
	assertIndexEqual(t, index.Build(grown, opts), p)

	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	for _, m := range maps {
		if m.Mapped() {
			t.Error("Close kept the extended index's mapping")
		}
	}
}

// TestFreshSaveIsOneBlock: a saved index is the built index — one block
// however many sequences the bank has — so every fresh file takes the
// zero-copy route under mmap: the load allocates the lookup structure
// the index derives (Bits and Rank when dense, Top when sparse), the
// proof bits and the footer — nothing sized by Pos and, on either side
// of the dense threshold, no copy of the code list or the offsets.
func TestFreshSaveIsOneBlock(t *testing.T) {
	b := bank.New("fresh", genRecs(t, 60, 6000))
	for _, tc := range []struct {
		w     int
		dense bool
	}{{8, true}, {13, false}} {
		opts := index.Options{W: tc.w}
		built := index.Build(b, opts)
		if only(built).Dense() != tc.dense {
			t.Fatalf("W=%d, %d codes: Dense() = %v, the row is meant to be %v", tc.w, only(built).NumCodes(), only(built).Dense(), tc.dense)
		}
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
		p, m, err := loadMapped(path, b, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if canMap() {
			if !m.Mapped() {
				t.Error("the mapped load of a fresh save did not keep its mapping")
			}
			// The footer holds an 8-byte checksum a sequence; 64 KB covers
			// the rest of it, the block directory, the proof bits and the
			// Index itself.
			q := only(built)
			n := q.NumCodes()
			lookup := 4*len(q.Top) + 8*len(q.Bits) + 4*len(q.Rank)
			footer := 8*b.NumSeqs() + 64<<10
			got, max := after.TotalAlloc-before.TotalAlloc, uint64(lookup+footer)
			if got > max {
				t.Errorf("W=%d: the mapped load allocated %d bytes, want ≤ lookup %d + footer %d = %d (the code list alone is %d, the offsets %d, Pos %d)",
					tc.w, got, lookup, footer, max, 4*n, 4*(n+1), 4*len(q.Pos))
			}
		}
		assertIndexEqual(t, built, p)
		readLoad, err := load(path, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEqual(t, built, readLoad)
	}
}

// TestSaveWritesOneBlockAPart: saving an index that is several parts —
// what DirStore.Save does when an extension's in-place append fails —
// writes each part as the block it is, and the file loads back to the
// same parts.
func TestSaveWritesOneBlockAPart(t *testing.T) {
	recs := genRecs(t, 500, 5)
	b := bank.New("db", recs)
	opts := index.Options{W: 8}
	dir := t.TempDir()
	tiled := filepath.Join(dir, "tiled"+FileExt)
	saveCut(t, tiled, b, opts, []int{2, 4})
	p, err := load(tiled, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "saved"+FileExt)
	if err := Save(path, p); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(tiled)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the save of a 3-part index (%d bytes) is not the 3-block file it was loaded from (%d bytes)", len(got), len(want))
	}
	loaded, err := load(path, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Parts()) != 3 {
		t.Fatalf("the saved file loads as %d parts, want 3", len(loaded.Parts()))
	}
	assertIndexEqual(t, index.Build(b, opts), loaded)
}

// TestOlderSaveLayoutLoads: Save used to cut a fresh index every 4,096
// sequences. A file laid out that way — same format, so nothing marks
// it — still loads by both routes, a part a block, each the block built
// over its range and together Build's occurrences.
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
	want := index.Build(grown, opts)
	readLoad, err := load(path, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, want, readLoad)
	mapped, m, err := loadMapped(path, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	assertIndexEqual(t, want, mapped)
}

// TestProbeMetadata: the probe reports version, index key, identity,
// and the block directory without payload access.
func TestProbeMetadata(t *testing.T) {
	b := genBank(t, "probe", 2048)
	opts := index.Options{W: 8, Dust: true, SampleStep: 2}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	saveTiled(t, path, b, opts, 1)
	info, err := Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != formatVersion {
		t.Errorf("version %d, want %d", info.Version, formatVersion)
	}
	if info.BankCRC != b.Checksum() || info.DataLen != int64(len(b.Data)) ||
		info.NumSeqs != b.NumSeqs() {
		t.Errorf("identity %+v does not match bank", info)
	}
	if info.Key != opts.Key() {
		t.Errorf("key %+v, want %+v", info.Key, opts.Key())
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
