package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestVersionedAPISurface: every scorisd route answers under /v1/ and
// nowhere else — the bare paths the mux registers are plain 404s, with
// no trace of the old deprecated-alias headers.
func TestVersionedAPISurface(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 2})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"db":"est1","query":"est2"}`
	post := func(t *testing.T, path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	v1, v1out := post(t, "/v1/compare")
	if v1.StatusCode != http.StatusOK {
		t.Fatalf("/v1/compare: status %d: %s", v1.StatusCode, v1out)
	}
	want := serialORIS(t, est1, est2, srv.Config().RequestWorkers, false)
	if len(v1out) == 0 || !bytes.Equal(v1out, want) {
		t.Fatal("/v1/compare output differs from the serial engine bytes")
	}
	for _, path := range []string{"/compare", "/compare/batch", "/jobs"} {
		if bare, out := post(t, path); bare.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404: %s", path, bare.StatusCode, out)
		}
	}

	for _, path := range []string{"/banks", "/stats", "/healthz", "/readyz"} {
		respV1, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		respV1.Body.Close()
		if respV1.StatusCode != http.StatusOK {
			t.Errorf("GET /v1%s: status %d, want 200", path, respV1.StatusCode)
		}
		bare, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		bare.Body.Close()
		if bare.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, bare.StatusCode)
		}
		if bare.Header.Get("Deprecation") != "" {
			t.Errorf("GET %s still advertises a Deprecation header", path)
		}
	}
}
