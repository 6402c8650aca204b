package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/ixcache"
	"repro/internal/simulate"
	"repro/internal/stats"
	"repro/internal/tabular"
)

// testBanks returns the small paper banks the CLI tests also use.
func testBanks(t *testing.T) (est1, est2, est3 *bank.Bank) {
	t.Helper()
	ds := simulate.NewDataSet(256)
	return ds.Get(simulate.EST1), ds.Get(simulate.EST2), ds.Get(simulate.EST3)
}

// serialORIS computes the reference m8 bytes for (db, query) the way
// the scoris CLI does — the byte-identity oracle for server responses.
func serialORIS(t *testing.T, db, query *bank.Bank, workers int, self bool) []byte {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Workers = workers
	opt.SkipSelfPairs = self
	res, err := core.Compare(db, query, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tabular.Write(&buf, toRecords(res.Alignments, db, query)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func toRecords(as []align.Alignment, db, query *bank.Bank) []tabular.Record {
	out := make([]tabular.Record, len(as))
	for i := range as {
		out[i] = tabular.FromAlignment(&as[i], db, query)
	}
	return out
}

func postCompare(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/compare", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestServerCompareMatchesSerialEngines(t *testing.T) {
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

	// oris, m8: byte-identical to the serial engine output.
	want := serialORIS(t, est1, est2, srv.Config().RequestWorkers, false)
	status, got := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusOK {
		t.Fatalf("oris compare: status %d: %s", status, got)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("oris m8 differs from serial output (%d vs %d bytes)", len(got), len(want))
	}

	// blat engine.
	bopt := blat.DefaultOptions()
	bres, err := blat.Compare(est1, est2, bopt)
	if err != nil {
		t.Fatal(err)
	}
	var bbuf bytes.Buffer
	if err := tabular.Write(&bbuf, toRecords(bres.Alignments, est1, est2)); err != nil {
		t.Fatal(err)
	}
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est2","engine":"blat"}`)
	if status != http.StatusOK || !bytes.Equal(got, bbuf.Bytes()) {
		t.Fatalf("blat differs (status %d, %d vs %d bytes)", status, len(got), bbuf.Len())
	}

	// blastn engine, through the session pool.
	nres, err := blastn.Compare(est1, est2, blastn.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var nbuf bytes.Buffer
	if err := tabular.Write(&nbuf, toRecords(nres.Alignments, est1, est2)); err != nil {
		t.Fatal(err)
	}
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est2","engine":"blastn"}`)
	if status != http.StatusOK || !bytes.Equal(got, nbuf.Bytes()) {
		t.Fatalf("blastn differs (status %d, %d vs %d bytes)", status, len(got), nbuf.Len())
	}
	if c := srv.sessions.created.Load(); c != 1 {
		t.Errorf("session pool created %d sessions for one serial blastn stream, want 1", c)
	}

	// Self-comparison (the CLI's -self).
	want = serialORIS(t, est1, est1, srv.Config().RequestWorkers, true)
	status, got = postCompare(t, ts.URL, `{"db":"est1","self":true}`)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("self compare differs (status %d, %d vs %d bytes)", status, len(got), len(want))
	}

	// JSON format parses and carries the same records.
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est2","format":"json"}`)
	if status != http.StatusOK {
		t.Fatalf("json compare: status %d: %s", status, got)
	}
	var cr compareResponse
	if err := json.Unmarshal(got, &cr); err != nil {
		t.Fatalf("json response: %v", err)
	}
	sres, err := core.Compare(est1, est2, func() core.Options {
		o := core.DefaultOptions()
		o.Workers = srv.Config().RequestWorkers
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Alignments) != len(sres.Alignments) {
		t.Fatalf("json carries %d alignments, serial %d", len(cr.Alignments), len(sres.Alignments))
	}

	// The oris keys (est1, est2) each built exactly once across all of
	// the above — the blat tile index is its own third key.
	if b := srv.Cache().Builds(); b != 3 {
		t.Errorf("cache built %d indexes, want 3 (est1 oris, est2 oris, est1 blat tiles)", b)
	}

	// /stats surfaces the counters.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Banks != 2 || st.Cache.Builds != 3 || st.Server.Compares < 5 {
		t.Errorf("stats off: %+v", st)
	}
	if st.Sessions.Checkouts != 1 || st.Sessions.Idle != 1 {
		t.Errorf("session pool stats off: %+v", st.Sessions)
	}
}

func TestServerBankRegistration(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Same name, same content: idempotent.
	if err := srv.RegisterBank("a", est1, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("a", est1, true); err != nil {
		t.Fatalf("idempotent re-registration refused: %v", err)
	}
	// Same name, different content: refused.
	if err := srv.RegisterBank("a", est2, false); err == nil {
		t.Fatal("conflicting registration accepted")
	}

	// FASTA-body registration over HTTP.
	fa := ">s1 test\nACGTACGTACGTACGTACGTGGCATTGCA\n>s2\nTTGCAACGTTGCAACGTTGCA\n"
	resp, err := http.Post(ts.URL+"/v1/banks?name=little&db=1", "text/x-fasta", strings.NewReader(fa))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("FASTA registration: status %d", resp.StatusCode)
	}
	var info bankInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Sequences != 2 || !info.DB {
		t.Fatalf("FASTA registration parsed wrong: %+v", info)
	}

	// Unknown banks 404.
	status, body := postCompare(t, ts.URL, `{"db":"nope","query":"a"}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown db bank: status %d: %s", status, body)
	}
	// Unknown engine 400.
	status, body = postCompare(t, ts.URL, `{"db":"a","query":"little","engine":"hmmer"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown engine: status %d: %s", status, body)
	}

	// Result-changing options an engine does not implement are
	// refused, never silently dropped.
	for _, req := range []string{
		`{"db":"a","query":"little","engine":"blat","both_strands":true}`,
		`{"db":"a","query":"little","engine":"blat","asymmetric":true}`,
		`{"db":"a","query":"little","engine":"blastn","asymmetric":true}`,
	} {
		if status, body := postCompare(t, ts.URL, req); status != http.StatusBadRequest {
			t.Errorf("unsupported engine option accepted (%s): status %d: %s", req, status, body)
		}
	}

	// DELETE releases a bank; compares against it then 404.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/banks?name=little", nil)
	resp2, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("DELETE bank: status %d", resp2.StatusCode)
	}
	if status, _ := postCompare(t, ts.URL, `{"db":"a","query":"little"}`); status != http.StatusNotFound {
		t.Errorf("compare against a deleted bank: status %d, want 404", status)
	}
	delReq2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/banks?name=little", nil)
	resp3, err := http.DefaultClient.Do(delReq2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("double DELETE: status %d, want 404", resp3.StatusCode)
	}
}

// TestServerBankRegistryBound: the registry refuses growth past
// MaxBanks (each entry pins full sequence data), and deletion makes
// room again.
func TestServerBankRegistryBound(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	srv := New(Config{MaxConcurrent: 1, MaxBanks: 2})
	if err := srv.RegisterBank("a", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("b", est2, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("c", est3, false); err == nil {
		t.Fatal("registration past MaxBanks accepted")
	}
	// Idempotent re-registration of an existing name still works at
	// the bound.
	if err := srv.RegisterBank("a", est1, true); err != nil {
		t.Fatalf("idempotent re-registration refused at the bound: %v", err)
	}
	if !srv.DeregisterBank("b") {
		t.Fatal("deregister failed")
	}
	if err := srv.RegisterBank("c", est3, false); err != nil {
		t.Fatalf("registration after a delete refused: %v", err)
	}
}

// TestServerAdmissionControl pins the 429 contract deterministically
// with the compare hold hook: pool of 1, no queue — the second request
// must be rejected while the first is parked in flight.
func TestServerAdmissionControl(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1, QueueDepth: -1})
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

	first := make(chan []byte, 1)
	go func() {
		_, body := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
		first <- body
	}()
	waitFor(t, func() bool { return srv.admitted.Load() == 1 })

	status, body := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429: %s", status, body)
	}
	if srv.rejected.Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", srv.rejected.Load())
	}

	close(hold)
	got := <-first
	want := serialORIS(t, est1, est2, srv.Config().RequestWorkers, false)
	if !bytes.Equal(got, want) {
		t.Fatal("held request did not complete with the full serial output")
	}

	// With the hold released, the pool admits again.
	status, got = postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("post-overload request: status %d", status)
	}
}

// TestServerBadRequestRefusedBeforeCapacity: a request that can never
// succeed — unknown engine, an option its engine does not implement,
// options that fail validation — is a 400 on every route before it
// costs anything: no queue place or 429 with the pool full, no 202 and
// no registry record for a job.
func TestServerBadRequestRefusedBeforeCapacity(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1, QueueDepth: -1})
	srv.RegisterBank("est1", est1, true)
	srv.RegisterBank("est2", est2, false)
	hold := make(chan struct{})
	srv.testHoldCompare = hold
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Park the only worker slot: anything admitted now would bounce 429.
	first := make(chan int, 1)
	go func() {
		status, _ := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
		first <- status
	}()
	waitFor(t, func() bool { return srv.admitted.Load() == 1 })

	for _, c := range []struct{ path, body string }{
		{"/v1/compare", `{"db":"est1","query":"est2","engine":"hmmer"}`},
		{"/v1/compare", `{"db":"est1","query":"est2","stream":true,"engine":"blat","both_strands":true}`},
		{"/v1/compare/batch", `{"db":"est1","queries":["est2"],"engine":"blastn","asymmetric":true}`},
		{"/v1/compare/batch", `{"db":"est1","queries":["est2"],"w":3}`},
		{"/v1/jobs", `{"db":"est1","query":"est2","engine":"hmmer"}`},
		{"/v1/jobs", `{"db":"est1","query":"est2","engine":"blastn","w":3}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if got := srv.rejected.Load(); got != 0 {
		t.Errorf("rejected = %d, want 0 (a 400 must not reach admission)", got)
	}
	if js := srv.jobStats(); js.Created != 0 || js.Held != 0 {
		t.Errorf("bad job requests left records behind: %+v", js)
	}
	close(hold)
	if status := <-first; status != http.StatusOK {
		t.Errorf("parked compare: status %d", status)
	}
}

// TestServerBoundsScoring: a scoring parameter past stats.MaxParam is a
// 400 on every engine — `"mismatch":2000000000` used to take the daemon
// down inside the K series — while the largest allowed values run.
func TestServerBoundsScoring(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	srv.RegisterBank("db", est1, true)
	srv.RegisterBank("q", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, engine := range []string{"oris", "blat", "blastn"} {
		for _, c := range []struct {
			opts string
			want int
		}{
			{`"mismatch":2000000000`, http.StatusBadRequest},
			{fmt.Sprintf(`"match":%d,"mismatch":%d`, stats.MaxParam+1, stats.MaxParam), http.StatusBadRequest},
			{fmt.Sprintf(`"mismatch":%d`, stats.MaxParam+1), http.StatusBadRequest},
			{fmt.Sprintf(`"gap_open":%d`, stats.MaxParam+1), http.StatusBadRequest},
			{fmt.Sprintf(`"gap_extend":%d`, stats.MaxParam+1), http.StatusBadRequest},
			{fmt.Sprintf(`"mismatch":%d,"gap_open":%d,"gap_extend":%d`, stats.MaxParam, stats.MaxParam, stats.MaxParam), http.StatusOK},
			{fmt.Sprintf(`"match":%d,"mismatch":%d`, stats.MaxParam, stats.MaxParam), http.StatusOK},
		} {
			body := fmt.Sprintf(`{"db":"db","query":"q","engine":%q,%s}`, engine, c.opts)
			if status, out := postCompare(t, ts.URL, body); status != c.want {
				t.Errorf("%s: status %d, want %d (%.80s)", body, status, c.want, out)
			}
		}
	}
}

// paddedBody pads a JSON object with trailing whitespace inside its
// braces to exactly n bytes.
func paddedBody(obj string, n int) string {
	return obj[:len(obj)-1] + strings.Repeat(" ", n-len(obj)) + "}"
}

// TestServerBoundsCompareBody: every compare-shaped route reads its JSON
// body through one bound. A body of exactly maxCompareBody bytes is
// served; one byte more is a 413 that is counted as a request and never
// reaches admission, an engine or the job registry.
func TestServerBoundsCompareBody(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	srv.RegisterBank("db", est1, true)
	srv.RegisterBank("q", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	posts, served := int64(0), int64(0)
	for _, c := range []struct {
		path, body string
		atBound    int
	}{
		{"/v1/compare", `{"db":"db","query":"q"}`, http.StatusOK},
		{"/v1/compare/batch", `{"db":"db","queries":["q"]}`, http.StatusOK},
		{"/v1/jobs", `{"db":"db","query":"q"}`, http.StatusAccepted},
	} {
		for _, extra := range []int{0, 1} {
			want := c.atBound
			if extra > 0 {
				want = http.StatusRequestEntityTooLarge
			}
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(paddedBody(c.body, maxCompareBody+extra)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			posts++
			if resp.StatusCode != want {
				t.Errorf("POST %s with %d bytes: status %d, want %d", c.path, maxCompareBody+extra, resp.StatusCode, want)
			}
		}
		served++
	}
	waitFor(t, func() bool { return srv.compares.Load() == served })
	if got := srv.requests.Load(); got != posts {
		t.Errorf("requests = %d, want %d: a 413 is still a request", got, posts)
	}
	if js := srv.jobStats(); js.Created != 1 {
		t.Errorf("jobs created = %d, want 1 (the body at the bound)", js.Created)
	}
	if got := srv.admissions.Load(); got != served {
		t.Errorf("admissions = %d, want %d (a 413 must not reach admission)", got, served)
	}
}

// TestServerDeregisterDropsIdleSessions: the blastn session pool must
// not pin a deleted bank — its idle sessions go with the registry
// entry.
func TestServerDeregisterDropsIdleSessions(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	srv.RegisterBank("db", est1, true)
	srv.RegisterBank("q", est2, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idle := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Sessions.Idle
	}
	if status, body := postCompare(t, ts.URL, `{"db":"db","query":"q","engine":"blastn"}`); status != http.StatusOK {
		t.Fatalf("blastn compare: status %d: %s", status, body)
	}
	if got := idle(); got != 1 {
		t.Fatalf("sessions.idle = %d after one blastn compare, want 1", got)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/banks?name=db", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE bank: status %d", resp.StatusCode)
	}
	if got := idle(); got != 0 {
		t.Errorf("sessions.idle = %d after deregistering the db bank, want 0", got)
	}
}

// TestServerDeregisterDropsCachedIndexes: the index cache must not pin
// a deleted bank either — upload, compare, DELETE, and /v1/stats counts
// only the db's index, at the default cache size, however many query
// banks have come and gone.
func TestServerDeregisterDropsCachedIndexes(t *testing.T) {
	est1, _, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 1})
	srv.RegisterBank("db", est1, true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cache := func() ixcache.Counters {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Cache
	}
	fa := ">q0\n" + string(dna.Decode(est1.SeqCodes(0))) + "\n"
	for round := 1; round <= 3; round++ {
		resp, err := http.Post(ts.URL+"/v1/banks?name=q", "text/x-fasta", strings.NewReader(fa))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: upload: status %d", round, resp.StatusCode)
		}
		if status, body := postCompare(t, ts.URL, `{"db":"db","query":"q"}`); status != http.StatusOK {
			t.Fatalf("round %d: compare: status %d: %s", round, status, body)
		}
		if got := cache().Entries; got != 2 {
			t.Fatalf("round %d: cache.entries = %d with db and q indexed, want 2", round, got)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/banks?name=q", nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: DELETE bank: status %d", round, resp.StatusCode)
		}
		if c := cache(); c.Entries != 1 || c.Evictions != int64(round) {
			t.Fatalf("round %d: after DELETE cache.entries = %d, evictions = %d; want 1 (the db) and %d",
				round, c.Entries, c.Evictions, round)
		}
	}
	if got := cache().Builds; got != 4 {
		t.Errorf("cache.builds = %d, want 4: the db once, each uploaded q once", got)
	}
}

// TestServerGracefulDrain pins the shutdown contract: Shutdown must
// wait for the in-flight compare (parked on the hold hook) and that
// compare must complete with its full output — drained, not dropped.
func TestServerGracefulDrain(t *testing.T) {
	est1, est2, _ := testBanks(t)
	srv := New(Config{MaxConcurrent: 2})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	srv.testHoldCompare = hold

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	first := make(chan []byte, 1)
	go func() {
		_, body := postCompare(t, url, `{"db":"est1","query":"est2"}`)
		first <- body
	}()
	waitFor(t, func() bool { return srv.admitted.Load() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must NOT complete while the compare is in flight.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) while a compare was in flight", err)
	case <-time.After(200 * time.Millisecond):
	}

	close(hold)
	got := <-first
	want := serialORIS(t, est1, est2, srv.Config().RequestWorkers, false)
	if !bytes.Equal(got, want) {
		t.Fatal("in-flight compare was dropped by shutdown instead of drained")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConfigDefaults pins the knob derivations.
func TestConfigDefaults(t *testing.T) {
	c := Config{MaxConcurrent: 4}.withDefaults()
	if c.QueueDepth != 8 {
		t.Errorf("QueueDepth default = %d, want 8", c.QueueDepth)
	}
	if c.RequestWorkers < 1 {
		t.Errorf("RequestWorkers = %d, want >= 1", c.RequestWorkers)
	}
	if c.MaxIdleSessions != 4 {
		t.Errorf("MaxIdleSessions = %d, want 4", c.MaxIdleSessions)
	}
	c = Config{MaxConcurrent: 2, QueueDepth: -1}.withDefaults()
	if c.QueueDepth != 0 {
		t.Errorf("negative QueueDepth should mean none, got %d", c.QueueDepth)
	}
}
