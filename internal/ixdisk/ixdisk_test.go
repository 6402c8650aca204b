package ixdisk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
)

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
	var blocks []index.BlockParts
	for lo := 0; lo < b.NumSeqs(); lo += blockSeqs {
		bp, err := index.BuildBlock(b, opts, lo, min(lo+blockSeqs, b.NumSeqs()))
		if err != nil {
			tb.Fatal(err)
		}
		blocks = append(blocks, bp)
	}
	var buf bytes.Buffer
	if err := writeBlocksTo(&buf, b, opts, blocks); err != nil {
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
		"dust":       {W: 8, Dust: dust.New(0, 0)},
		"halfword":   {W: 7, SampleStep: 2},
		"phase1":     {W: 7, SampleStep: 2, SamplePhase: 1},
		"dust+half":  {W: 8, Dust: dust.New(32, 1.5), SampleStep: 2},
		"everyThird": {W: 6, SampleStep: 3, SamplePhase: 2},
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

// assertIndexEqual checks that a loaded index is indistinguishable from
// the built one in every observable way.
func assertIndexEqual(t *testing.T, built, loaded *index.Index) {
	t.Helper()
	bp, lp := built.Parts(), loaded.Parts()
	if !sameInts(bp.Offsets, lp.Offsets) {
		t.Error("Offsets differ after round trip")
	}
	if !sameInts(bp.Pos, lp.Pos) {
		t.Error("Pos differs after round trip")
	}
	if !sameInts(bp.Codes, lp.Codes) {
		t.Error("Codes differ after round trip")
	}
	if bp.Indexed != lp.Indexed || bp.MaskedOut != lp.MaskedOut || bp.SampledOut != lp.SampledOut {
		t.Errorf("counters differ: built %d/%d/%d, loaded %d/%d/%d",
			bp.Indexed, bp.MaskedOut, bp.SampledOut, lp.Indexed, lp.MaskedOut, lp.SampledOut)
	}
	if built.W != loaded.W || built.Bank != loaded.Bank {
		t.Errorf("W/Bank differ: %d/%p vs %d/%p", built.W, built.Bank, loaded.W, loaded.Bank)
	}
	if !ixcache.SameKey(built.Options(), loaded.Options()) {
		t.Errorf("options key differs: %+v vs %+v", built.Options(), loaded.Options())
	}
}

func TestRoundTripLoad(t *testing.T) {
	b := genBank(t, "rt", 4096)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix"+FileExt)
			built := ixcache.Prepare(b, opts)
			if err := Save(path, built); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertIndexEqual(t, built.Ix, loaded.Ix)
			if !loaded.MatchesOptions(opts) {
				t.Error("loaded Prepared fails MatchesOptions for its own options")
			}
		})
	}
}

func TestRoundTripLoadMapped(t *testing.T) {
	b := genBank(t, "rtm", 4096)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix"+FileExt)
			built := ixcache.Prepare(b, opts)
			if err := Save(path, built); err != nil {
				t.Fatal(err)
			}
			loaded, m, err := LoadMapped(path, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if mmapSupported && nativeLittleEndian && !m.Mapped() {
				t.Error("expected a real mapping on this platform")
			}
			assertIndexEqual(t, built.Ix, loaded.Ix)
			// Spot-exercise accessors over the aliased memory.
			for _, c := range loaded.Ix.Parts().Codes {
				occ := loaded.Ix.Occ(seed.Code(c))
				if len(occ) == 0 {
					t.Fatalf("occupied code %d has empty occurrence slice", c)
				}
			}
		})
	}
}

// TestLoadIsIndependentOfFile pins Load's copying contract: deleting
// (or corrupting) the file after Load must not affect the index.
func TestLoadIsIndependentOfFile(t *testing.T) {
	b := genBank(t, "ind", 2048)
	opts := index.Options{W: 8}
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	built := ixcache.Prepare(b, opts)
	if err := Save(path, built); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, built.Ix, loaded.Ix)
}

// saveValid writes a fresh valid file and returns its bytes and path.
func saveValid(t *testing.T, b *bank.Bank, opts index.Options) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix"+FileExt)
	if err := Save(path, ixcache.Prepare(b, opts)); err != nil {
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
	_, errL := Load(path, b, opts)
	p, m, errM := LoadMapped(path, b, opts)
	if p != nil && m != nil {
		m.Close()
	}
	for which, err := range map[string]error{"Load": errL, "LoadMapped": errM} {
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
	opts := index.Options{W: 8, Dust: dust.New(0, 0)}
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
		path := rewrite(t, func(buf []byte) []byte { return buf[:headerSizeV3/2] })
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
	t.Run("bad-magic", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[0] ^= 0xFF; return buf })
		loadBoth(t, path, b, opts, ErrBadMagic)
	})
	t.Run("version-mismatch", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[8] = 99; return buf })
		loadBoth(t, path, b, opts, ErrVersion)
	})
	t.Run("checksum-corruption", func(t *testing.T) {
		path := rewrite(t, func(buf []byte) []byte { buf[headerSizeV3+len(buf)/3] ^= 0x40; return buf })
		loadBoth(t, path, b, opts, ErrChecksum)
	})
	t.Run("key-mismatch-W", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 9, Dust: dust.New(0, 0)}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-dust", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 8}, ErrKeyMismatch)
		loadBoth(t, path, b, index.Options{W: 8, Dust: dust.New(32, 1.5)}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-sampling", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, b, index.Options{W: 8, Dust: dust.New(0, 0), SampleStep: 2}, ErrKeyMismatch)
	})
	t.Run("key-mismatch-bank", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		loadBoth(t, path, other, opts, ErrKeyMismatch)
	})
	t.Run("workers-not-part-of-key", func(t *testing.T) {
		path, _ := saveValid(t, b, opts)
		alias := opts
		alias.Workers = 7
		if _, err := Load(path, b, alias); err != nil {
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
	assertIndexEqual(t, p1.Ix, p2.Ix)

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
	buf[headerSizeV3+len(buf)/2] ^= 0x01
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
	assertIndexEqual(t, built.Ix, p.Ix)

	// The write-back healed the file: a fresh cache now disk-hits.
	c2 := ixcache.New(4)
	c2.SetStore(store)
	c2.Get(b, opts)
	if c2.Builds() != 0 || c2.DiskHits() != 1 {
		t.Fatalf("store not healed: builds=%d diskHits=%d, want 0/1", c2.Builds(), c2.DiskHits())
	}
}

// TestDirStoreUnmappedMode covers the copying path of the store.
func TestDirStoreUnmappedMode(t *testing.T) {
	dir := t.TempDir()
	b := genBank(t, "copy", 2048)
	opts := index.Options{W: 8}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMapped(false)
	if err := store.Save(ixcache.Prepare(b, opts)); err != nil {
		t.Fatal(err)
	}
	p, err := store.Load(b, opts)
	if err != nil || p == nil {
		t.Fatalf("unmapped load: %v, %v", p, err)
	}
	assertIndexEqual(t, ixcache.Prepare(b, opts).Ix, p.Ix)
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
		if err := Save(path, ixcache.Prepare(b, opts)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(path, b, opts); err != nil {
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
	if err := store.Save(ixcache.Prepare(b, opts)); err != nil {
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
			t.Fatal("reload returned a new Prepared instead of the memoized one")
		}
	}
	store.mu.Lock()
	nMaps := len(store.maps)
	store.mu.Unlock()
	if nMaps > 1 {
		t.Errorf("6 loads of one key hold %d mappings, want at most 1", nMaps)
	}
}
