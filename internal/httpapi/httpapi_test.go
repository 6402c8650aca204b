package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestVersionedSurface: routes answer under /v1/ only; the bare paths
// the mux registers are not reachable from outside.
func TestVersionedSurface(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/compare", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "result for "+r.URL.Path)
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "job "+r.URL.Path)
	})
	ts := httptest.NewServer(Versioned(mux))
	defer ts.Close()

	get := func(t *testing.T, path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	v1, v1body := get(t, "/v1/compare")
	if v1.StatusCode != http.StatusOK || v1body != "result for /compare" {
		t.Fatalf("/v1/compare: status %d, body %q", v1.StatusCode, v1body)
	}
	for _, bare := range []string{"/compare", "/jobs/42", "/"} {
		resp, _ := get(t, bare)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("bare path %s: status %d, want 404", bare, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("bare path %s still advertises a Deprecation header", bare)
		}
	}

	// Subtree routes carry their suffix through the prefix strip.
	if _, body := get(t, "/v1/jobs/42"); body != "job /jobs/42" {
		t.Errorf("subtree route under /v1: %q", body)
	}

	if resp, _ := get(t, "/v1/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/nope: status %d", resp.StatusCode)
	}
}

// failingBody is a request body whose read fails.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (failingBody) Close() error             { return nil }

// TestReadBodyBound: a body of exactly limit bytes is read whole, one
// byte more is a 413, and any other read failure a 400.
func TestReadBodyBound(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		body   io.ReadCloser
		status int
	}{
		{io.NopCloser(strings.NewReader(strings.Repeat("x", limit))), 0},
		{io.NopCloser(strings.NewReader(strings.Repeat("x", limit+1))), http.StatusRequestEntityTooLarge},
		{failingBody{}, http.StatusBadRequest},
	} {
		r := httptest.NewRequest(http.MethodPost, "/banks", tc.body)
		body, status, err := ReadBody(httptest.NewRecorder(), r, limit)
		if status != tc.status || (err == nil) != (tc.status == 0) {
			t.Errorf("want status %d: got %d, %v", tc.status, status, err)
		}
		if tc.status == 0 && len(body) != limit {
			t.Errorf("read %d of a %d-byte body", len(body), limit)
		}
	}
}
