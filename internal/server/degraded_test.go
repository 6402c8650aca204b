package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ixdisk"
)

// TestServerStoreDegradedServing pins graceful degradation of the cold
// tier: when the -index-dir directory stops being writable mid-run, the
// server must keep serving byte-identical results from in-memory
// builds, the store must count each failed write-back once, and no
// .orix-tmp-* litter may be left behind. The store is a cache below a
// cache — losing it degrades durability, never correctness.
func TestServerStoreDegradedServing(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	storeDir := filepath.Join(t.TempDir(), "ixstore")
	store, err := ixdisk.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{MaxConcurrent: 2, Store: store})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est3", est3, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	want2 := serialORIS(t, est1, est2, srv.Config().RequestWorkers)
	want3 := serialORIS(t, est1, est3, srv.Config().RequestWorkers)

	// Healthy phase: the first compare builds and persists two indexes.
	status, got := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusOK || !bytes.Equal(got, want2) {
		t.Fatalf("healthy compare: status %d, %d bytes (want %d)", status, len(got), len(want2))
	}
	// Write-back is asynchronous; wait for both .orix files to land.
	waitFor(t, func() bool { return len(orixFiles(t, storeDir)) == 2 })

	// Degrade the store mid-run. chmod a-w is the scenario the test is
	// named for, but permission bits do not bind uid 0 — under root the
	// directory is made unreachable instead (moved aside), the other
	// way a store degrades in production (unmounted volume).
	degradedDir := storeDir
	if os.Getuid() == 0 {
		degradedDir = storeDir + ".offline"
		if err := os.Rename(storeDir, degradedDir); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := os.Chmod(storeDir, 0o555); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(storeDir, 0o755)
	}

	// A compare needing a fresh index (est3, first touch) still serves,
	// byte-identical, from a pure in-memory build.
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est3"}`)
	if status != http.StatusOK {
		t.Fatalf("degraded compare: status %d: %s", status, got)
	}
	if !bytes.Equal(got, want3) {
		t.Fatalf("degraded compare differs from the in-memory reference (%d vs %d bytes)", len(got), len(want3))
	}
	// ... and the failed write-back is counted by the store, not the
	// cache: the cache used every index it got.
	waitFor(t, func() bool { return store.WriteBackErrors() >= 1 })
	if n := srv.Cache().DiskErrors(); n != 0 {
		t.Errorf("cache DiskErrors = %d, want 0: a failed write-back is the store's to count", n)
	}

	// Already-prepared keys keep serving from the in-memory LRU.
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusOK || !bytes.Equal(got, want2) {
		t.Fatalf("warm compare under a degraded store: status %d", status)
	}

	// No temp litter: every failed save cleaned up after itself.
	for _, f := range tmpLitter(t, degradedDir) {
		t.Errorf("orphaned temp file left behind: %s", f)
	}

	// The counters surface over /stats too, so an operator can see the
	// degradation without reading logs.
	st := srv.StatsSnapshot()
	if st.Store.WriteBackErrors < 1 || st.Cache.DiskErrors != 0 {
		t.Errorf("stats: store.write_back_errors = %d, cache.disk_errors = %d, want ≥ 1 and 0",
			st.Store.WriteBackErrors, st.Cache.DiskErrors)
	}
}

func orixFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*.orix"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tmpLitter(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, ".orix-tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
