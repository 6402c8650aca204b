package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/tabular"
)

// streamPost issues a compare POST and returns the live response for
// incremental reading (the caller closes it).
func streamPost(t *testing.T, url, path, body, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamGet opens a GET (job results) for incremental reading.
func streamGet(t *testing.T, url, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// feedGate pushes tokens into the server's stream gate until stop is
// closed, so a gated stream runs freely.
func feedGate(gate chan struct{}, stop chan struct{}) {
	for {
		select {
		case gate <- struct{}{}:
		case <-stop:
			return
		}
	}
}

// ungated runs fn with the gate fed freely: the gate paces every sink,
// so a gated server's oracle compares need tokens too.
func ungated(gate chan struct{}, fn func()) {
	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		feedGate(gate, stop)
	}()
	fn()
	close(stop)
	<-fed
}

func TestServerStreamedCompareMatchesBuffered(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The serial reference of each engine, computed outside the server.
	serial := map[string][]align.Alignment{}
	bres, err := blat.Compare(est1, est2, blat.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial["blat"] = bres.Alignments
	nres, err := blastn.Compare(est1, est2, blastn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial["blastn"] = nres.Alignments

	for _, engine := range []string{"oris", "blat", "blastn"} {
		t.Run(engine, func(t *testing.T) {
			body := fmt.Sprintf(`{"db":"est1","query":"est2","engine":%q}`, engine)
			status, want := postCompare(t, ts.URL, body)
			if status != http.StatusOK {
				t.Fatalf("buffered compare: status %d: %s", status, want)
			}
			ref := serialORIS(t, est1, est2, srv.Config().RequestWorkers, false)
			if engine != "oris" {
				var buf bytes.Buffer
				if err := tabular.Write(&buf, toRecords(serial[engine], est1, est2)); err != nil {
					t.Fatal(err)
				}
				ref = buf.Bytes()
			}
			if len(want) == 0 || !bytes.Equal(want, ref) {
				t.Fatalf("buffered bytes differ from the serial reference: %d vs %d bytes", len(want), len(ref))
			}

			// Batch of one, m8: the same bytes.
			batchBody := fmt.Sprintf(`{"db":"est1","queries":["est2"],"engine":%q}`, engine)
			resp := streamPost(t, ts.URL, "/v1/compare/batch", batchBody, "")
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("batch-of-one m8: err=%v status=%d, %d vs %d bytes", err, resp.StatusCode, len(got), len(want))
			}

			// Batch of one, JSON: the same records, rendered to the same bytes.
			resp = streamPost(t, ts.URL, "/v1/compare/batch", strings.TrimSuffix(batchBody, "}")+`,"format":"json"}`, "")
			var br batchResponse
			err = json.NewDecoder(resp.Body).Decode(&br)
			resp.Body.Close()
			if err != nil || len(br.Results) != 1 || br.Engine != engine {
				t.Fatalf("batch-of-one JSON: err=%v, %+v", err, br)
			}
			var rendered bytes.Buffer
			if err := tabular.Write(&rendered, br.Results[0].Alignments); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rendered.Bytes(), want) {
				t.Errorf("batch-of-one JSON renders %d bytes, want %d", rendered.Len(), len(want))
			}

			// Job, followed through /result.
			resp = streamPost(t, ts.URL, "/v1/jobs", body, "")
			var created jobStatus
			err = json.NewDecoder(resp.Body).Decode(&created)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("job create: err=%v status=%d", err, resp.StatusCode)
			}
			rr := streamGet(t, ts.URL, "/v1/jobs/"+created.ID+"/result")
			got, err = io.ReadAll(rr.Body)
			rr.Body.Close()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("job result: err=%v, %d vs %d bytes", err, len(got), len(want))
			}
			if tr := rr.Trailer.Get(streamStatusTrailer); tr != streamStatusComplete {
				t.Errorf("job result trailer = %q, want %q", tr, streamStatusComplete)
			}
			if st, _ := jobStatusOf(t, ts.URL, created.ID); st.SeqsDone != est2.NumSeqs() {
				t.Errorf("job seqs_done = %d, want %d (empty groups tick too)", st.SeqsDone, est2.NumSeqs())
			}

			// Header form and JSON-field form must behave identically.
			for _, via := range []string{"accept", "field"} {
				sb, accept := body, ""
				if via == "accept" {
					accept = m8StreamAccept
				} else {
					sb = strings.TrimSuffix(body, "}") + `,"stream":true}`
				}
				resp := streamPost(t, ts.URL, "/v1/compare", sb, accept)
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("reading stream (via %s): %v", via, err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("stream status %d: %s", resp.StatusCode, got)
				}
				if h := resp.Header.Get("X-Scoris-Stream"); h != "m8" {
					t.Errorf("X-Scoris-Stream = %q, want m8", h)
				}
				if tr := resp.Trailer.Get(streamStatusTrailer); tr != streamStatusComplete {
					t.Errorf("trailer = %q, want %q", tr, streamStatusComplete)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("streamed bytes (via %s) differ from buffered: %d vs %d bytes",
						via, len(got), len(want))
				}
			}
		})
	}
}

func TestServerStreamRejectsJSONFormat(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body := postCompare(t, ts.URL, `{"db":"est1","query":"est2","format":"json","stream":true}`)
	if status != http.StatusBadRequest {
		t.Fatalf("stream+json accepted: status %d: %s", status, body)
	}
}

// TestServerStreamedCompareEmitsEarly pins the whole point of the
// stream path: m8 bytes reach the client while the engine still has
// query sequences to go.
func TestServerStreamedCompareEmitsEarly(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{StreamBuffer: 1})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var status int
	var want []byte
	ungated(gate, func() { status, want = postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`) })
	if status != http.StatusOK {
		t.Fatalf("buffered compare: %d", status)
	}
	before := srv.compares.Load() // the buffered oracle above counted

	// Let the first 10 of est2's 43 query groups through — the first
	// m8 line lives at query seq 8 (deterministic banks), so bytes are
	// guaranteed flushed while 33 groups are still pending. Feed
	// before the request: a streamed response opens (headers, first
	// chunk) only at its first m8 byte, so the POST itself blocks
	// until the gate lets that group through.
	go func() {
		for i := 0; i < 10; i++ {
			gate <- struct{}{}
		}
	}()
	resp := streamPost(t, ts.URL, "/v1/compare", `{"db":"est1","query":"est2","stream":true}`, "")
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	if srv.compares.Load() != before {
		t.Fatal("compare already finished when the first byte arrived; stream did not start early")
	}
	if !strings.Contains(first, "\t") {
		t.Fatalf("first streamed line is not m8: %q", first)
	}

	// Open the gate and drain; the total must equal the buffered run.
	stop := make(chan struct{})
	// background: feedGate returns once the deferred close(stop) fires.
	go feedGate(gate, stop)
	defer close(stop)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(first), rest...)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed bytes differ from buffered: %d vs %d bytes", len(got), len(want))
	}
	if tr := resp.Trailer.Get(streamStatusTrailer); tr != streamStatusComplete {
		t.Errorf("trailer = %q", tr)
	}
}

// TestServerStreamedCompareClientDisconnect: a client that vanishes
// mid-stream must free the worker slot and count as abandoned, and the
// engine must stop (the gate stays blocked; only ctx cancellation can
// release it).
func TestServerStreamedCompareClientDisconnect(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1, StreamBuffer: 1})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pace the stream past its first m8 line (query seq 8 of 43), so
	// the disconnect lands mid-body with the engine parked on the gate.
	// Fed before the POST: the response opens at its first m8 byte.
	go func() {
		for i := 0; i < 10; i++ {
			gate <- struct{}{}
		}
	}()
	resp := streamPost(t, ts.URL, "/v1/compare", `{"db":"est1","query":"est2","stream":true}`, "")
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	resp.Body.Close()

	// The engine is parked on the gate; only the request context going
	// away can unblock it. Slot free + abandoned counted = the server
	// noticed and cleaned up. The slot is freed by the engine goroutine
	// and the count made by the handler after it, so wait for both.
	waitFor(t, func() bool { return srv.admitted.Load() == 0 && srv.abandoned.Load() >= 1 })
	if got := srv.abandoned.Load(); got != 1 {
		t.Errorf("abandoned = %d, want 1", got)
	}
	if got := srv.compares.Load(); got != 0 {
		t.Errorf("compares = %d after torn stream, want 0", got)
	}
}

// TestServerBufferedCompareClientDisconnect: the request context
// reaches the engine on the buffered sink too. The compare is parked on
// the gate after its first group; only its context going away can
// unblock it, so slot free + abandoned counted = the engine stopped
// mid-run instead of holding its worker slot to the end.
func TestServerBufferedCompareClientDisconnect(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compare",
		strings.NewReader(`{"db":"est1","query":"est2"}`))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	gate <- struct{}{} // first group through; the second parks on the gate
	cancel()
	if err := <-gone; err == nil {
		t.Fatal("cancelled compare reported success")
	}
	waitFor(t, func() bool { return srv.admitted.Load() == 0 })
	waitFor(t, func() bool { return srv.abandoned.Load() == 1 })
	if got := srv.compares.Load(); got != 0 {
		t.Errorf("compares = %d after an abandoned compare, want 0", got)
	}
}

func TestServerBatchCompare(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	srv.RegisterBank("est3", est3, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The oracle: each query through the single-compare path.
	_, m8est2 := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	_, m8est3 := postCompare(t, ts.URL, `{"db":"est1","query":"est3"}`)
	want := append(append([]byte(nil), m8est2...), m8est3...)

	admissionsBefore := srv.admissions.Load()
	resp := streamPost(t, ts.URL, "/v1/compare/batch", `{"db":"est1","queries":["est2","est3"]}`, "")
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch m8 differs from concatenated single compares: %d vs %d bytes", len(got), len(want))
	}
	if d := srv.admissions.Load() - admissionsBefore; d != 1 {
		t.Errorf("batch consumed %d admissions, want 1", d)
	}
	if got := srv.batches.Load(); got != 1 {
		t.Errorf("batches = %d, want 1", got)
	}
}

func TestServerBatchBlastnSingleCheckout(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	srv.RegisterBank("est3", est3, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := streamPost(t, ts.URL, "/v1/compare/batch",
		`{"db":"est1","queries":["est2","est3","est2"],"engine":"blastn"}`, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if got := srv.sessions.checkouts.Load(); got != 1 {
		t.Errorf("blastn batch used %d session checkouts, want 1", got)
	}
	if got := srv.admissions.Load(); got != 1 {
		t.Errorf("blastn batch used %d admissions, want 1", got)
	}
}

func TestServerBatchJSONAndValidation(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := streamPost(t, ts.URL, "/v1/compare/batch",
		`{"db":"est1","queries":["est2"],"format":"json"}`, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json batch status %d: %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("bad batch JSON: %v", err)
	}
	if len(br.Results) != 1 || br.Results[0].Query != "est2" {
		t.Fatalf("batch JSON results: %+v", br.Results)
	}

	bad := []struct{ body, why string }{
		{`{"db":"est1"}`, "no queries"},
		{`{"db":"est1","queries":[]}`, "empty queries"},
		{`{"queries":["est2"]}`, "no db"},
		{`{"db":"est1","queries":["est2"],"query":"est2"}`, "query field set"},
		{`{"db":"est1","queries":["est2"],"self":true}`, "self"},
		{`{"db":"est1","queries":["est2"],"stream":true}`, "stream"},
	}
	for _, c := range bad {
		resp := streamPost(t, ts.URL, "/v1/compare/batch", c.body, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.why, resp.StatusCode)
		}
	}
	resp = streamPost(t, ts.URL, "/v1/compare/batch", `{"db":"est1","queries":["ghost"]}`, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown query bank: status %d, want 404", resp.StatusCode)
	}
}

// jobStatusOf polls GET /jobs/{id}.
func jobStatusOf(t *testing.T, url, id string) (jobStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode
}

func TestServerJobLifecycle(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, want := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)

	resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
	var created jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create status %d", resp.StatusCode)
	}
	if created.ID == "" || created.SeqsTotal != est2.NumSeqs() {
		t.Fatalf("created job: %+v", created)
	}

	waitFor(t, func() bool {
		st, _ := jobStatusOf(t, ts.URL, created.ID)
		return st.State == string(jobDone)
	})
	st, _ := jobStatusOf(t, ts.URL, created.ID)
	if st.SeqsDone != st.SeqsTotal || st.Bytes != len(want) {
		t.Errorf("done job progress: %+v (want %d bytes)", st, len(want))
	}

	// The result endpoint replays the finished job byte-for-byte.
	rr := streamGet(t, ts.URL, "/v1/jobs/"+created.ID+"/result")
	got, err := io.ReadAll(rr.Body)
	rr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result differs from buffered compare: %d vs %d bytes", len(got), len(want))
	}
	if tr := rr.Trailer.Get(streamStatusTrailer); tr != streamStatusComplete {
		t.Errorf("job result trailer = %q", tr)
	}
	if js := srv.jobStats(); js.Completed != 1 || js.Created != 1 {
		t.Errorf("job stats: %+v", js)
	}

	// DELETE discards; the id stops resolving.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dr.Body)
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("job delete status %d", dr.StatusCode)
	}
	if _, code := jobStatusOf(t, ts.URL, created.ID); code != http.StatusNotFound {
		t.Errorf("deleted job still resolves: %d", code)
	}
}

// TestServerJobResultFollowsLive attaches a result reader to a running
// job and asserts it receives the bytes incrementally, sealed complete.
func TestServerJobResultFollowsLive(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var want []byte
	ungated(gate, func() { _, want = postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`) })
	resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
	var created jobStatus
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()

	// Attach the follower while the job is still gated (not finished).
	rr := streamGet(t, ts.URL, "/v1/jobs/"+created.ID+"/result")
	defer rr.Body.Close()

	// Pace some progress, then let it run free.
	for i := 0; i < 8; i++ {
		gate <- struct{}{}
	}
	st, _ := jobStatusOf(t, ts.URL, created.ID)
	if st.State != string(jobRunning) || st.SeqsDone == 0 {
		t.Fatalf("mid-flight job status: %+v", st)
	}
	stop := make(chan struct{})
	// background: feedGate returns once the deferred close(stop) fires.
	go feedGate(gate, stop)
	defer close(stop)

	got, err := io.ReadAll(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("followed job result differs: %d vs %d bytes", len(got), len(want))
	}
	if tr := rr.Trailer.Get(streamStatusTrailer); tr != streamStatusComplete {
		t.Errorf("follower trailer = %q", tr)
	}
}

func TestServerJobCancel(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
	var created jobStatus
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()

	// Pace one group so the job is demonstrably running, attach a
	// follower, then cancel: the follower must get a torn trailer, the
	// slot must free, the job must count cancelled.
	gate <- struct{}{}
	rr := streamGet(t, ts.URL, "/v1/jobs/"+created.ID+"/result")
	defer rr.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dr.Body)
	dr.Body.Close()

	if _, err := io.ReadAll(rr.Body); err != nil {
		t.Fatalf("reading cancelled job result: %v", err)
	}
	if tr := rr.Trailer.Get(streamStatusTrailer); tr != "cancelled" {
		t.Errorf("cancelled job trailer = %q, want cancelled", tr)
	}
	waitFor(t, func() bool { return srv.jobsCancelled.Load() == 1 })
	waitFor(t, func() bool { return len(srv.sem) == 0 })
}

func TestServerJobRegistryBound(t *testing.T) {
	est1, est2, _ := testBanks(t)
	// MaxConcurrent 1 + a held compare slot keeps jobs queued, so the
	// registry fills deterministically.
	srv := New(Config{MaxConcurrent: 1, MaxJobs: 2})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	hold := make(chan struct{})
	srv.testHoldCompare = hold
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the only worker slot.
	// background: the compare returns once close(hold) releases it, and
	// the deferred ts.Close waits for the handler to finish.
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json",
			strings.NewReader(`{"db":"est1","query":"est2"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return len(srv.sem) == 1 })

	for i := 0; i < 2; i++ {
		resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d create status %d", i, resp.StatusCode)
		}
	}
	resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job past MaxJobs: status %d, want 429", resp.StatusCode)
	}
	if js := srv.jobStats(); js.Queued != 2 || js.Held != 2 {
		t.Errorf("job stats with full registry: %+v", js)
	}
	close(hold) // release the held compare; queued jobs drain
	waitFor(t, func() bool { return srv.jobStats().Completed == 2 })
}
