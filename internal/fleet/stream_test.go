package fleet

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/fleet/chaos"
	"repro/internal/simulate"
)

// streamCompare issues a streamed compare through the router and reads
// it to the end, returning status, body, and the sealing trailer.
func streamCompare(t *testing.T, routerURL, body string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, routerURL+"/v1/compare", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/x-m8-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading streamed body: %v", err)
	}
	return resp.StatusCode, b, resp.Trailer.Get(streamStatusTrailer)
}

// TestFleetStreamedCompareRelay: a streamed compare through the router
// relays the worker's chunked m8 without buffering and seals it with
// the worker's "complete" trailer — bytes identical to the buffered
// route and to the single-process oracle.
func TestFleetStreamedCompareRelay(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, _, ts := newTestFleet(t, 2, testCfg(), nil)

	registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	status, body, trailer := streamCompare(t, ts.URL, `{"db":"db","query":"q"}`)
	if status != http.StatusOK {
		t.Fatalf("streamed compare: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("streamed bytes differ from oracle: %d vs %d bytes", len(body), len(want))
	}
	if trailer != streamComplete {
		t.Errorf("trailer = %q, want %q", trailer, streamComplete)
	}
	if got := rt.compares.Load(); got != 1 {
		t.Errorf("router compares = %d, want 1", got)
	}
	if got := rt.tornRelays.Load(); got != 0 {
		t.Errorf("torn relays = %d for a clean stream, want 0", got)
	}

	// The JSON-field form must relay identically.
	resp, err := http.Post(ts.URL+"/v1/compare", "application/json",
		strings.NewReader(`{"db":"db","query":"q","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(b, want) {
		t.Fatalf("field-form stream: err=%v, %d bytes (want %d)", err, len(b), len(want))
	}
	if h := resp.Header.Get(streamMarkerHeader); h != "m8" {
		t.Errorf("%s = %q, want m8", streamMarkerHeader, h)
	}
}

// TestFleetStreamFailoverBeforeFirstByte: a dead primary owner fails a
// streamed compare before any byte is relayed, so the router is still
// free to fail over — the client sees one intact, complete stream from
// the next replica.
func TestFleetStreamFailoverBeforeFirstByte(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 2, testCfg(), nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	workerByName(workers, info.Owners[0]).px.Kill()

	status, body, trailer := streamCompare(t, ts.URL, `{"db":"db","query":"q"}`)
	if status != http.StatusOK {
		t.Fatalf("streamed compare after owner death: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("failover stream differs from oracle: %d vs %d bytes", len(body), len(want))
	}
	if trailer != streamComplete {
		t.Errorf("trailer = %q after pre-byte failover, want %q", trailer, streamComplete)
	}
	if got := rt.failovers.Load(); got < 1 {
		t.Errorf("failovers = %d, want >= 1 (the dead owner was tried first)", got)
	}
	if got := rt.tornRelays.Load(); got != 0 {
		t.Errorf("torn relays = %d — pre-first-byte death must not tear the client stream", got)
	}
}

// TestFleetStreamTornRelay is the torn-stream chaos criterion: a worker
// that dies after its stream has started cannot be failed over (bytes
// are already with the client), and the router must seal the stream
// with a non-"complete" trailer — never present the truncation as a
// full result, never hang.
func TestFleetStreamTornRelay(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 2, testCfg(), nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	owner := workerByName(workers, info.Owners[0])
	owner.px.Set(chaos.Torn)

	status, body, trailer := streamCompare(t, ts.URL, `{"db":"db","query":"q"}`)
	if status != http.StatusOK {
		t.Fatalf("torn stream: status %d (the tear happens mid-body, after the 200)", status)
	}
	if len(body) == 0 || len(body) >= len(want) {
		t.Fatalf("torn stream relayed %d bytes, want partial (0 < n < %d)", len(body), len(want))
	}
	if trailer == streamComplete {
		t.Fatal("torn stream sealed \"complete\" — silent truncation is the one forbidden outcome")
	}
	if trailer != "error" {
		t.Errorf("torn stream trailer = %q, want \"error\"", trailer)
	}
	if got := rt.tornRelays.Load(); got != 1 {
		t.Errorf("torn relays = %d, want 1", got)
	}
	if st := workerState(rt, info.Owners[0]); st != StateDown {
		t.Errorf("worker that tore a stream is %v, want down", st)
	}

	// The fleet keeps serving: the torn worker is Down, so the next
	// streamed compare fails over before its first byte and completes.
	status, body, trailer = streamCompare(t, ts.URL, `{"db":"db","query":"q"}`)
	if status != http.StatusOK || !bytes.Equal(body, want) || trailer != streamComplete {
		t.Fatalf("stream after tear: status %d, %d bytes (want %d), trailer %q",
			status, len(body), len(want), trailer)
	}
}

func workerState(rt *Router, name string) State {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.workers[name].State()
}

// TestFleetBatchCompare: /compare/batch routes by the db bank like any
// compare and relays the worker's concatenated m8 — one worker, one
// admission slot, every query's block byte-identical to its solo run.
func TestFleetBatchCompare(t *testing.T) {
	est1, est2 := testBanks(t)
	est3 := simulate.NewDataSet(256).Get(simulate.EST3)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q1", est2, false)
	registerBank(t, ts.URL, "q2", est3, false)
	want := append(oracle(t, est1, est2), oracle(t, est1, est3)...)

	resp, err := http.Post(ts.URL+"/v1/compare/batch", "application/json",
		strings.NewReader(`{"db":"db","queries":["q1","q2"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("batch bytes differ from concatenated solo compares: %d vs %d bytes", len(body), len(want))
	}
	if got := rt.compares.Load(); got != 1 {
		t.Errorf("router compares = %d, want 1 (a batch is one route)", got)
	}

	// The whole batch landed on the primary owner under one admission.
	owner := workerByName(workers, info.Owners[0])
	st := owner.srv.StatsSnapshot()
	if st.Server.Batches != 1 || st.Server.Admissions != 1 {
		t.Errorf("owner batches=%d admissions=%d, want 1/1", st.Server.Batches, st.Server.Admissions)
	}

	// Unknown query banks are the router's 404, not a forwarded error.
	resp, err = http.Post(ts.URL+"/v1/compare/batch", "application/json",
		strings.NewReader(`{"db":"db","queries":["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown batch query: status %d, want 404", resp.StatusCode)
	}
}
