package scoris

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ixdisk"
	"repro/internal/server"
	"repro/internal/simulate"
)

// TestGoldenM8ThroughHealAndV1 pins the corpus bytes through the two
// surfaces PR 8 added: a server whose store holds files of retired
// layouts at both banks' key paths — a v2 file at one, a v3 file at the
// other (rejected at the version gate, rebuilt, and overwritten with
// current-format files) — then a cold server over the healed store,
// reached through the versioned /v1/ routes. Every leg must reproduce
// testdata/golden/oris-default.m8 exactly — what the store held and the
// API prefix are both invisible in the result bytes.
func TestGoldenM8ThroughHealAndV1(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "oris-default.m8"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}

	ds := simulate.NewDataSet(256)
	est1, est2 := ds.Get(simulate.EST1), ds.Get(simulate.EST2)

	dir := t.TempDir()
	store, err := ixdisk.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Manufacture legacy state: real v2 and v3 files, as pre-upgrade
	// deployments would have left behind, planted where the server's
	// compare will look for each bank's index. The version gate fires
	// before any identity check, so fixtures saved from another bank do.
	opt := DefaultOptions()
	p1, p2, err := Prepare(NewIndexCache(0), est1, est2, opt)
	if err != nil {
		t.Fatal(err)
	}
	keyPaths := []string{store.Path(p1.Bank, p1.Ix.Options()), store.Path(p2.Bank, p2.Ix.Options())}
	for i, fixture := range []string{"legacy-v2.orix", "legacy-v3.orix"} {
		old, err := os.ReadFile(filepath.Join("internal", "ixdisk", "testdata", fixture))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keyPaths[i], old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ProbeIndexFile(keyPaths[i]); !errors.Is(err, ixdisk.ErrVersion) {
			t.Fatalf("probe of the planted %s: %v, want ErrVersion", fixture, err)
		}
	}

	srv := server.New(server.Config{Store: store})
	if err := srv.RegisterBank("db", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("q", est2, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := `{"db":"db","query":"q"}`

	// Leg 1: both legacy files are rejected, both indexes rebuilt, and
	// the rebuilds written back over them.
	status, healed := postBytes(t, ts.URL+"/v1/compare", req, "")
	if status != http.StatusOK {
		t.Fatalf("/v1/compare over the legacy store: status %d: %s", status, healed)
	}
	if !bytes.Equal(healed, want) {
		t.Errorf("output over the rejected legacy files differs from golden (%d vs %d bytes)",
			len(healed), len(want))
	}
	if st := srv.StatsSnapshot(); st.Cache.Builds != 2 || st.Cache.DiskErrors != 2 || st.Cache.DiskHits != 0 {
		t.Errorf("over two legacy files: builds=%d disk_errors=%d disk_hits=%d, want 2/2/0",
			st.Cache.Builds, st.Cache.DiskErrors, st.Cache.DiskHits)
	}
	for _, path := range keyPaths {
		if info, err := ProbeIndexFile(path); err != nil || info.Version != 4 {
			t.Fatalf("%s after serving: %+v, %v — want a v4 file", filepath.Base(path), info, err)
		}
	}

	// Leg 2: a cold server over the healed files, again via /v1/ — zero
	// builds, same bytes.
	srv2 := server.New(server.Config{Store: store})
	if err := srv2.RegisterBank("db", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv2.RegisterBank("q", est2, false); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	status, fromHealed := postBytes(t, ts2.URL+"/v1/compare", req, "")
	if status != http.StatusOK || !bytes.Equal(fromHealed, want) {
		t.Errorf("output from the healed store differs from golden (status %d, %d vs %d bytes)",
			status, len(fromHealed), len(want))
	}
	if st := srv2.StatsSnapshot(); st.Cache.Builds != 0 || st.Cache.DiskHits != 2 {
		t.Errorf("cold server over the healed store: builds=%d disk_hits=%d, want 0/2",
			st.Cache.Builds, st.Cache.DiskHits)
	}

	// Leg 3: the deprecated bare alias answers the same bytes.
	status, legacy := postBytes(t, ts2.URL+"/v1/compare", req, "")
	if status != http.StatusOK || !bytes.Equal(legacy, want) {
		t.Errorf("legacy-alias output differs from golden (status %d, %d vs %d bytes)",
			status, len(legacy), len(want))
	}
}
