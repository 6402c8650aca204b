package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServerReadyzDrainFlip pins the readiness contract a fleet router
// depends on: /readyz answers 200 while the server takes traffic and
// flips to 503 the moment draining begins — while /healthz (liveness)
// stays 200 throughout, since a draining server is alive.
func TestServerReadyzDrainFlip(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if status, body := get("/v1/readyz"); status != http.StatusOK {
		t.Fatalf("fresh server /readyz: status %d: %s", status, body)
	}
	srv.SetDraining(true)
	status, body := get("/v1/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining server /readyz: status %d, body %s; want 503 + draining", status, body)
	}
	if status, _ := get("/v1/healthz"); status != http.StatusOK {
		t.Errorf("draining server /healthz: status %d, want 200 (drain is not death)", status)
	}
	if !srv.StatsSnapshot().Server.Draining {
		t.Error("stats do not report draining")
	}
	srv.SetDraining(false)
	if status, _ := get("/v1/readyz"); status != http.StatusOK {
		t.Errorf("un-drained server /readyz: status %d, want 200", status)
	}
}

// TestServerAbandonedQueuedRequest: a request that gives up while
// queued for a worker slot must free its place immediately and be
// counted Abandoned — it must NOT go on to run the full comparison for
// a client that is gone.
func TestServerAbandonedQueuedRequest(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	srv.testHoldCompare = hold
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First request takes the only worker slot and parks on the hold.
	first := make(chan []byte, 1)
	go func() {
		_, body := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
		first <- body
	}()
	waitFor(t, func() bool { return srv.admitted.Load() == 1 })

	// Second request queues behind it, then its client walks away.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compare",
		strings.NewReader(`{"db":"est1","query":"est2"}`))
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		second <- err
	}()
	waitFor(t, func() bool { return srv.admitted.Load() == 2 })
	cancel()
	if err := <-second; err == nil {
		t.Fatal("cancelled request reported success")
	}

	// The abandoned request frees its queue slot without waiting for
	// (or taking) a worker slot, and is counted.
	waitFor(t, func() bool { return srv.admitted.Load() == 1 })
	waitFor(t, func() bool { return srv.abandoned.Load() == 1 })
	before := srv.compares.Load()

	// The held request is unaffected and completes with full output.
	close(hold)
	got := <-first
	want := serialORIS(t, est1, est2, srv.Config().RequestWorkers)
	if !bytes.Equal(got, want) {
		t.Fatal("held request did not complete with the full serial output")
	}
	waitFor(t, func() bool { return srv.admitted.Load() == 0 })
	if c := srv.compares.Load(); c != before+1 {
		t.Errorf("compares counter moved by %d, want 1 (the abandoned request must not run)", c-before)
	}
}

// TestServerRequestTimeout504 pins the -request-timeout contract: a
// compare that outlives the server-side deadline is answered 504 with
// the distinct timed_out JSON marker, and the worker slot it occupies
// is released once the compare actually finishes — never leaked.
func TestServerRequestTimeout504(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1, RequestTimeout: 100 * time.Millisecond})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	srv.testHoldCompare = hold
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("overlong compare: status %d, want 504: %s", status, body)
	}
	var eb struct {
		Error    string `json:"error"`
		TimedOut bool   `json:"timed_out"`
	}
	if err := json.Unmarshal(body, &eb); err != nil || !eb.TimedOut || eb.Error == "" {
		t.Fatalf("504 body lacks the distinct timed_out marker: %s", body)
	}
	if srv.timedOut.Load() != 1 {
		t.Errorf("timed_out counter = %d, want 1", srv.timedOut.Load())
	}

	// The slot is still held by the parked compare — and is released,
	// not leaked, once that compare returns.
	if got := srv.admitted.Load(); got != 1 {
		t.Fatalf("admitted = %d while the timed-out compare is still parked, want 1", got)
	}
	close(hold)
	waitFor(t, func() bool { return srv.admitted.Load() == 0 })

	// The pool serves normally again (no timeout pressure this time:
	// the hold is gone, the small compare finishes well inside 100ms —
	// and on a pathologically slow machine a 504 here would still be
	// correct behavior, so only insist on one of the two).
	status, body = postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusOK && status != http.StatusGatewayTimeout {
		t.Fatalf("post-timeout compare: status %d: %s", status, body)
	}
}
