package ixdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// genRecs returns deterministic records so prefix/appended bank pairs
// can be built from shared record slices.
func genRecs(t testing.TB, n, count int) []*fasta.Record {
	t.Helper()
	const alpha = "ACGT"
	state := uint32(13579)
	recs := make([]*fasta.Record, count)
	for r := range recs {
		buf := make([]byte, n)
		for i := range buf {
			state = state*1664525 + 1013904223
			buf[i] = alpha[state>>30]
		}
		recs[r] = &fasta.Record{ID: fmt.Sprintf("s%d", r), Seq: buf}
	}
	return recs
}

// TestDirStorePrefixExtend is the tentpole flow end to end: a store
// holding the index of a k-sequence bank satisfies a lookup for the
// (k+1)-sequence appended bank by suffix extension, the result is
// indistinguishable from a cold build, and the write-back makes the
// next process exact-hit.
func TestDirStorePrefixExtend(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 600, 5)
	short := bank.New("db", recs[:4])
	grown := bank.New("db", recs)
	opts := index.Options{W: 8}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Save(ixcache.Prepare(short, opts)); err != nil {
		t.Fatal(err)
	}

	p, err := store.Load(grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("appended bank missed despite a stored prefix")
	}
	if store.Extends() != 1 {
		t.Errorf("Extends = %d, want 1", store.Extends())
	}
	assertIndexEqual(t, ixcache.Prepare(grown, opts).Ix, p.Ix)
	if p.Bank != grown {
		t.Error("extended index not bound to the requesting bank")
	}

	// The extension was written back under the exact key: a fresh store
	// (new process) exact-hits with zero extensions.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	grown2 := bank.New("db", recs) // fresh pointer, same content
	p2, err := store2.Load(grown2, opts)
	if err != nil || p2 == nil {
		t.Fatalf("warm exact load after extension: %v, %v", p2, err)
	}
	if store2.Extends() != 0 {
		t.Errorf("second process extended (%d) instead of exact-hitting", store2.Extends())
	}
	assertIndexEqual(t, ixcache.Prepare(grown2, opts).Ix, p2.Ix)
}

// TestDirStorePrefixPicksLongest: with several stored prefixes the
// store extends the longest one.
func TestDirStorePrefixPicksLongest(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 400, 6)
	opts := index.Options{W: 7}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, k := range []int{2, 4, 5} {
		if err := store.Save(ixcache.Prepare(bank.New("db", recs[:k]), opts)); err != nil {
			t.Fatal(err)
		}
	}
	grown := bank.New("db", recs)
	cands := store.prefixCandidates(grown, opts, store.Path(grown, opts))
	if len(cands) != 3 || cands[0].k != 5 || cands[1].k != 4 || cands[2].k != 2 {
		t.Fatalf("candidates = %+v, want k descending 5,4,2", cands)
	}
	p, err := store.Load(grown, opts)
	if err != nil || p == nil {
		t.Fatalf("prefix load: %v, %v", p, err)
	}
	assertIndexEqual(t, ixcache.Prepare(grown, opts).Ix, p.Ix)
}

// TestDirStorePrefixGuards: extension must not fire across option
// keys, across banks whose prefix content differs, or when the stored
// bank is not a strict prefix.
func TestDirStorePrefixGuards(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 500, 4)
	opts := index.Options{W: 8}
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Save(ixcache.Prepare(bank.New("db", recs[:3]), opts)); err != nil {
		t.Fatal(err)
	}

	t.Run("different-options", func(t *testing.T) {
		p, err := store.Load(bank.New("db", recs), index.Options{W: 9})
		if p != nil || err != nil {
			t.Fatalf("W=9 lookup used a W=8 prefix: %v, %v", p, err)
		}
	})
	t.Run("mutated-prefix", func(t *testing.T) {
		mut := append([]*fasta.Record(nil), recs...)
		mut[0] = &fasta.Record{ID: "s0", Seq: append([]byte("TTTT"), recs[0].Seq...)}
		p, err := store.Load(bank.New("db", mut), opts)
		if p != nil || err != nil {
			t.Fatalf("mutated bank matched a stale prefix: %v, %v", p, err)
		}
	})
	t.Run("shrunk-bank", func(t *testing.T) {
		p, err := store.Load(bank.New("db", recs[:2]), opts)
		if p != nil || err != nil {
			t.Fatalf("shrunk bank matched a longer stored index: %v, %v", p, err)
		}
	})
	t.Run("different-display-name", func(t *testing.T) {
		// The candidate probe filters by the sanitized display name so
		// an exact miss never pays O(store) opens; a renamed bank is a
		// clean miss (rebuild), by design.
		p, err := store.Load(bank.New("renamed", recs), opts)
		if p != nil || err != nil {
			t.Fatalf("renamed bank should be a clean miss: %v, %v", p, err)
		}
	})
}

// TestDirStorePrefixThroughCache: the whole tier stack — an appended
// bank costs zero builds (one disk hit via extension) and produces the
// same index the cache would have built.
func TestDirStorePrefixThroughCache(t *testing.T) {
	dir := t.TempDir()
	recs := genRecs(t, 600, 3)
	opts := index.Options{W: 8}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cold := ixcache.New(4)
	cold.SetStore(store)
	cold.Get(bank.New("db", recs[:2]), opts)

	grown := bank.New("db", recs)
	warm := ixcache.New(4)
	warm.SetStore(store)
	p := warm.Get(grown, opts)
	if warm.Builds() != 0 || warm.DiskHits() != 1 {
		t.Fatalf("appended bank: builds=%d diskHits=%d, want 0/1", warm.Builds(), warm.DiskHits())
	}
	if store.Extends() != 1 {
		t.Errorf("Extends = %d, want 1", store.Extends())
	}
	assertIndexEqual(t, ixcache.Prepare(grown, opts).Ix, p.Ix)
}

// TestVersion1Rejected pins the migration contract: a file in the old
// (pre-per-sequence-checksum) layout is rejected with ErrVersion by
// both readers — never misread — and the store heals it by rebuild.
func TestVersion1Rejected(t *testing.T) {
	b := genBank(t, "v1", 2048)
	opts := index.Options{W: 8}
	dir := t.TempDir()
	path := filepath.Join(dir, "v1"+FileExt)

	// A plausible version-1 file: old 136-byte header, old section
	// order, no checksum vector. Only the frame prefix matters — the
	// version gate must fire before anything else is interpreted.
	v1 := make([]byte, 136+64)
	copy(v1[0:8], magic)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[12:], 136)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	loadBoth(t, path, b, opts, ErrVersion)

	// Healing: a store whose exact path holds a v1 file rebuilds and
	// overwrites it with a current-version file.
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	exact := store.Path(b, opts)
	if err := os.Rename(path, exact); err != nil {
		t.Fatal(err)
	}
	c := ixcache.New(4)
	c.SetStore(store)
	c.Get(b, opts)
	if c.Builds() != 1 || c.DiskErrors() != 1 {
		t.Fatalf("v1 file: builds=%d diskErrs=%d, want 1/1", c.Builds(), c.DiskErrors())
	}
	if _, err := Load(exact, b, opts); err != nil {
		t.Fatalf("store did not heal the v1 file: %v", err)
	}
}

// TestPhaseNormalizationRoundTrip is the satellite contract: negative
// or out-of-range SamplePhase values normalize to one identity — the
// same DirStore path and a loadable file — across save and load.
func TestPhaseNormalizationRoundTrip(t *testing.T) {
	b := genBank(t, "phase", 2048)
	saveOpts := index.Options{W: 7, SampleStep: 2, SamplePhase: -1}
	loadOpts := index.Options{W: 7, SampleStep: 2, SamplePhase: 1}

	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if p1, p2 := store.Path(b, saveOpts), store.Path(b, loadOpts); p1 != p2 {
		t.Fatalf("normalized phases map to different paths:\n%s\n%s", p1, p2)
	}
	if err := store.Save(ixcache.Prepare(b, saveOpts)); err != nil {
		t.Fatal(err)
	}
	p, err := store.Load(b, loadOpts)
	if err != nil || p == nil {
		t.Fatalf("load under normalized spelling: %v, %v", p, err)
	}
	assertIndexEqual(t, ixcache.Prepare(b, loadOpts).Ix, p.Ix)
	// And the out-of-range spelling loads what the in-range one saved.
	direct, err := Load(store.Path(b, loadOpts), b, index.Options{W: 7, SampleStep: 2, SamplePhase: 5})
	if err != nil {
		t.Fatalf("phase 5 (≡1 mod 2) rejected: %v", err)
	}
	assertIndexEqual(t, p.Ix, direct.Ix)
}

// TestStaleTempSweep is the satellite regression test: litter from a
// writer killed mid-Save is removed at store open and by GC, while a
// fresh staging file (a live concurrent Save) is left alone.
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, tmpPrefix+"stale")
	fresh := filepath.Join(dir, tmpPrefix+"fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("litter"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * DefaultTmpGrace)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale temp file survived store open")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (live writer) was swept")
	}

	// GC with a short grace collects the remaining one once it ages.
	older := time.Now().Add(-time.Minute)
	if err := os.Chtimes(fresh, older, older); err != nil {
		t.Fatal(err)
	}
	st, err := store.gcWith(GCConfig{TmpGrace: time.Second}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.RemovedTmps != 1 {
		t.Errorf("GC removed %d temps, want 1", st.RemovedTmps)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Error("aged temp file survived GC")
	}
}

// gcStoreWithFiles saves count small indexes and returns the store and
// their paths in save order.
func gcStoreWithFiles(t *testing.T, dir string, count int) (*DirStore, []string) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	paths := make([]string, count)
	for i := 0; i < count; i++ {
		b := genBank(t, fmt.Sprintf("gc%d", i), 1024+i)
		if err := store.Save(ixcache.Prepare(b, index.Options{W: 6})); err != nil {
			t.Fatal(err)
		}
		paths[i] = store.Path(b, index.Options{W: 6})
		// Spread mtimes a minute apart, oldest first.
		mt := time.Now().Add(time.Duration(i-count) * time.Minute)
		if err := os.Chtimes(paths[i], mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	return store, paths
}

func storeBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), FileExt) {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
	}
	return total
}

// TestGCSizeCap: the size cap evicts oldest-first until the store fits.
func TestGCSizeCap(t *testing.T) {
	dir := t.TempDir()
	store, paths := gcStoreWithFiles(t, dir, 4)
	total := storeBytes(t, dir)
	cap := total / 2
	st, err := store.gcWith(GCConfig{MaxBytes: cap}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.RemainingBytes > cap {
		t.Errorf("store still holds %d bytes over the %d cap", st.RemainingBytes, cap)
	}
	if got := storeBytes(t, dir); got != st.RemainingBytes {
		t.Errorf("stats say %d bytes remain, directory holds %d", st.RemainingBytes, got)
	}
	// The newest file must survive; the oldest must not.
	if _, err := os.Stat(paths[len(paths)-1]); err != nil {
		t.Error("size cap evicted the newest file")
	}
	if _, err := os.Stat(paths[0]); !errors.Is(err, os.ErrNotExist) {
		t.Error("size cap kept the oldest file")
	}
}

// TestGCAgeCap: the age cap removes everything older than MaxAge.
func TestGCAgeCap(t *testing.T) {
	dir := t.TempDir()
	store, paths := gcStoreWithFiles(t, dir, 3)
	// Files are 3, 2, 1 minutes old; collect older than 90 seconds.
	st, err := store.gcWith(GCConfig{MaxAge: 90 * time.Second}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 2 || st.Remaining != 1 {
		t.Errorf("age cap removed %d kept %d, want 2/1", st.Removed, st.Remaining)
	}
	if _, err := os.Stat(paths[2]); err != nil {
		t.Error("age cap evicted a file inside the window")
	}
}

// TestMemoHitTouchesBackingFile: an extension whose append the save
// policy declined is memoized under the request's key path, but the file
// it was read from is the stored prefix's. Memo hits must refresh *that*
// file's mtime, or an age-capped GC collects a file the process is
// actively serving from.
func TestMemoHitTouchesBackingFile(t *testing.T) {
	recs := genRecs(t, 600, 6)
	prefix := bank.New("db", recs[:4])
	grown := bank.New("db", recs)
	opts := index.Options{W: 8}
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stored := store.Path(prefix, opts)
	if err := Save(stored, ixcache.Prepare(prefix, opts)); err != nil {
		t.Fatal(err)
	}
	store.SetSavePolicy(SavePolicy{DBOnly: true})
	first, err := store.Load(grown, opts)
	if err != nil || first == nil {
		t.Fatalf("extension load: %v, %v", first, err)
	}
	if store.Extends() != 1 || store.BlockAppends() != 0 || store.SavesDeclined() != 1 {
		t.Fatalf("Extends/BlockAppends/SavesDeclined = %d/%d/%d, want 1/0/1: the append was not declined",
			store.Extends(), store.BlockAppends(), store.SavesDeclined())
	}

	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(stored, old, old); err != nil {
		t.Fatal(err)
	}
	again, err := store.Load(grown, opts)
	if err != nil || again != first {
		t.Fatalf("second load was not a memo hit: %v, %v", again, err)
	}
	fi, err := os.Stat(stored)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(fi.ModTime()) > time.Minute {
		t.Errorf("memo hit left the serving file's mtime at %v", fi.ModTime())
	}
	st, err := store.gcWith(GCConfig{MaxAge: 30 * time.Minute}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed != 0 {
		t.Errorf("age-capped GC removed %d files; the one in active use must stay", st.Removed)
	}
	if _, err := os.Stat(stored); err != nil {
		t.Errorf("the serving file is gone: %v", err)
	}
}

// TestGCRunsOnSave: with caps configured, saving keeps the store
// converging toward its bound without explicit GC calls.
func TestGCRunsOnSave(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.SetGC(GCConfig{MaxBytes: 1}) // nothing fits
	if err := store.Save(ixcache.Prepare(genBank(t, "auto", 2048), index.Options{W: 6})); err != nil {
		t.Fatal(err)
	}
	if got := storeBytes(t, dir); got > 1 {
		t.Errorf("store holds %d bytes despite a 1-byte cap and a save-triggered GC", got)
	}
}

// TestSavePolicy covers both policy axes and the declined-save
// plumbing through the cache tier.
func TestSavePolicy(t *testing.T) {
	t.Run("db-only", func(t *testing.T) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.SetSavePolicy(SavePolicy{DBOnly: true})
		db := genBank(t, "db", 4096)
		query := genBank(t, "query", 2048)
		store.MarkDB(db)

		if err := store.Save(ixcache.Prepare(db, index.Options{W: 8})); err != nil {
			t.Fatalf("db bank declined: %v", err)
		}
		err = store.Save(ixcache.Prepare(query, index.Options{W: 8}))
		if !errors.Is(err, ixcache.ErrSaveDeclined) {
			t.Fatalf("query bank save: %v, want ErrSaveDeclined", err)
		}
		if store.SavesDeclined() != 1 {
			t.Errorf("SavesDeclined = %d, want 1", store.SavesDeclined())
		}
		if _, err := os.Stat(store.Path(query, index.Options{W: 8})); !errors.Is(err, os.ErrNotExist) {
			t.Error("declined save still wrote a file")
		}
	})
	t.Run("min-bases", func(t *testing.T) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.SetSavePolicy(SavePolicy{MinBases: 3000})
		big := genBank(t, "big", 4096)
		small := genBank(t, "small", 1024)
		if err := store.Save(ixcache.Prepare(big, index.Options{W: 8})); err != nil {
			t.Fatalf("large bank declined: %v", err)
		}
		if err := store.Save(ixcache.Prepare(small, index.Options{W: 8})); !errors.Is(err, ixcache.ErrSaveDeclined) {
			t.Fatalf("small bank save: %v, want ErrSaveDeclined", err)
		}
		// MarkDB overrides the size floor.
		store.MarkDB(small)
		if err := store.Save(ixcache.Prepare(small, index.Options{W: 8})); err != nil {
			t.Fatalf("marked db bank declined: %v", err)
		}
	})
	t.Run("cache-counter", func(t *testing.T) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.SetSavePolicy(SavePolicy{DBOnly: true})
		c := ixcache.New(4)
		c.SetStore(store)
		c.Get(genBank(t, "q", 2048), index.Options{W: 8})
		if c.SavesDeclined() != 1 || c.DiskErrors() != 0 {
			t.Errorf("declined=%d diskErrs=%d, want 1/0", c.SavesDeclined(), c.DiskErrors())
		}
	})
}

// TestMemoMapsBounded is the satellite churn test: a long-lived store
// cycling through many query banks keeps its memo maps bounded.
func TestMemoMapsBounded(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := index.Options{W: 6}
	const churn = memoBound*2 + 10
	for i := 0; i < churn; i++ {
		b := genBank(t, fmt.Sprintf("churn%d", i), 512+i)
		if err := store.Save(ixcache.Prepare(b, opts)); err != nil {
			t.Fatal(err)
		}
		if p, err := store.Load(b, opts); err != nil || p == nil {
			t.Fatalf("churn %d: %v, %v", i, p, err)
		}
	}
	store.mu.Lock()
	nCRC, nLoaded := len(store.bankCRCs), len(store.loaded)
	nOrderC, nOrderL := len(store.crcOrder), len(store.ldOrder)
	store.mu.Unlock()
	if nCRC > memoBound || nOrderC > memoBound {
		t.Errorf("bankCRCs grew to %d entries (order %d), bound is %d", nCRC, nOrderC, memoBound)
	}
	if nLoaded > memoBound || nOrderL > memoBound {
		t.Errorf("loaded grew to %d entries (order %d), bound is %d", nLoaded, nOrderL, memoBound)
	}
	// Evicted keys still work — they just pay the read again.
	b0 := genBank(t, "churn0", 512)
	if p, err := store.Load(b0, opts); err != nil || p == nil {
		t.Fatalf("evicted key no longer loads: %v, %v", p, err)
	}
}
