package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/ixdisk"
	"repro/internal/simulate"
	"repro/internal/tabular"
)

// TestServerStress (run under -race in CI) fires mixed concurrent
// requests — same db bank from every goroutine, distinct query banks,
// all three engines — and asserts the two service invariants:
//
//  1. every response is byte-identical to the serial engine output for
//     its (bank, options) pair — concurrency never changes results;
//  2. the shared cache reports exactly one index build per
//     (bank, options) key across the whole run — the single-flight
//     machinery really did coalesce every concurrent first touch.
func TestServerStress(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	srv := New(Config{MaxConcurrent: 4, QueueDepth: 1 << 20})
	for _, reg := range []struct {
		name string
		b    *bank.Bank
		db   bool
	}{{"est1", est1, true}, {"est2", est2, false}, {"est3", est3, false}} {
		if err := srv.RegisterBank(reg.name, reg.b, reg.db); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Serial references, computed before any server traffic.
	workers := srv.Config().RequestWorkers
	blatRef := func() []byte {
		res, err := blat.Compare(est1, est2, blat.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tabular.Write(&buf, toRecords(res.Alignments, est1, est2)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	blastnRef := func() []byte {
		res, err := blastn.Compare(est1, est2, blastn.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tabular.Write(&buf, toRecords(res.Alignments, est1, est2)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	shapes := []struct {
		name string
		req  string
		want []byte
	}{
		{"oris-est2", `{"db":"est1","query":"est2"}`, serialORIS(t, est1, est2, workers, false)},
		{"oris-est3", `{"db":"est1","query":"est3"}`, serialORIS(t, est1, est3, workers, false)},
		{"blat-est2", `{"db":"est1","query":"est2","engine":"blat"}`, blatRef},
		{"blastn-est2", `{"db":"est1","query":"est2","engine":"blastn"}`, blastnRef},
	}
	for _, sh := range shapes {
		if len(sh.want) == 0 {
			t.Fatalf("degenerate reference for %s: no output", sh.name)
		}
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Rotate the starting shape per goroutine so first
				// touches of every key race with each other.
				for i := range shapes {
					sh := shapes[(g+i)%len(shapes)]
					status, got := postCompare(t, ts.URL, sh.req)
					if status != 200 {
						t.Errorf("%s: status %d: %s", sh.name, status, got)
						return
					}
					if !bytes.Equal(got, sh.want) {
						t.Errorf("%s: response differs from serial output (%d vs %d bytes)",
							sh.name, len(got), len(sh.want))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Exactly one build per key: est1/est2/est3 under the oris options
	// plus est1's blat tile index. blastn builds no bank index.
	if b := srv.Cache().Builds(); b != 4 {
		t.Errorf("cache built %d indexes across the stress run, want exactly 4", b)
	}
	if rej := srv.rejected.Load(); rej != 0 {
		t.Errorf("%d requests rejected despite the deep queue", rej)
	}
	want := int64(goroutines * rounds * len(shapes))
	if c := srv.compares.Load(); c != want {
		t.Errorf("%d compares completed, want %d", c, want)
	}
}

// TestServerStoreWarmStart: a second server over the same store
// directory (fresh process simulation: fresh cache, fresh DirStore,
// freshly loaded banks with identical content) must serve a full
// concurrent wave with zero index builds — every key comes off disk.
func TestServerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()

	run := func(wantBuilds, wantDiskHits int64) {
		t.Helper()
		// Fresh banks each time: content-identical, different pointers —
		// exactly what a new process sees.
		ds := simulate.NewDataSet(256)
		est1, est2, est3 := ds.Get(simulate.EST1), ds.Get(simulate.EST2), ds.Get(simulate.EST3)
		store, err := ixdisk.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		srv := New(Config{MaxConcurrent: 4, QueueDepth: 1 << 20, Store: store})
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

		workers := srv.Config().RequestWorkers
		shapes := []struct {
			req  string
			want []byte
		}{
			{`{"db":"est1","query":"est2"}`, serialORIS(t, est1, est2, workers, false)},
			{`{"db":"est1","query":"est3"}`, serialORIS(t, est1, est3, workers, false)},
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range shapes {
					sh := shapes[(g+i)%len(shapes)]
					status, got := postCompare(t, ts.URL, sh.req)
					if status != 200 || !bytes.Equal(got, sh.want) {
						t.Errorf("warm-start wave: status %d, %d vs %d bytes", status, len(got), len(sh.want))
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if b := srv.Cache().Builds(); b != wantBuilds {
			t.Errorf("builds = %d, want %d", b, wantBuilds)
		}
		if h := srv.Cache().DiskHits(); h != wantDiskHits {
			t.Errorf("disk hits = %d, want %d", h, wantDiskHits)
		}
	}

	// Cold server: three keys built (est1, est2, est3), nothing on disk.
	run(3, 0)
	// Warm server: zero builds, all three keys served from the store.
	run(0, 3)
}

// TestServerStressStreamedDisconnects (run under -race in CI) fires a
// full house of concurrent streamed compares and tears every client
// away mid-compare. The gate budget makes the outcome deterministic:
// 20 tokens across 6 streams lets some streams get past their first m8
// byte (query seq 8 of est2's 43) while guaranteeing none can finish
// (43 groups each), so every request must end abandoned — slot freed,
// Abandoned incremented, Compares untouched.
func TestServerStressStreamedDisconnects(t *testing.T) {
	est1, est2, _ := testBanks(t)
	const clients = 6
	srv := New(Config{MaxConcurrent: clients, QueueDepth: 4, StreamBuffer: 1})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv.testStreamGate = gate
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compare",
				strings.NewReader(`{"db":"est1","query":"est2","stream":true}`))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // cancelled before the first byte arrived
			}
			// Read until the cancellation tears the connection.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}

	// Every client holds a slot before the first token goes out: a
	// compare on these banks is quick enough that one stream would
	// otherwise drain the whole budget while the others are still
	// connecting, and a client cancelled before its request is read is
	// never counted. Then blocking sends: when the loop returns, every
	// token has been consumed by a running engine — all six streams are
	// live and parked on the gate, none finished.
	waitFor(t, func() bool { return srv.admitted.Load() == clients })
	for i := 0; i < 20; i++ {
		gate <- struct{}{}
	}
	cancel()
	wg.Wait()

	waitFor(t, func() bool { return srv.admitted.Load() == 0 })
	waitFor(t, func() bool { return srv.abandoned.Load() == clients })
	if got := srv.compares.Load(); got != 0 {
		t.Errorf("compares = %d after %d torn streams, want 0", got, clients)
	}
	if got := srv.rejected.Load(); got != 0 {
		t.Errorf("rejected = %d, want 0 (every client fit a slot)", got)
	}
}

// TestServerStressBatchVsBankDelete (run under -race in CI) races
// /compare/batch against DELETE + re-register churn on one of its
// query banks. The registry contract under churn: a batch either
// resolves every bank and serves bytes identical to the quiet-registry
// oracle (in-flight compares keep their bank pointers; deregistration
// cannot corrupt them), or answers 404 because a name was missing at
// resolve time. Nothing else — no torn bytes, no 500s, no races.
func TestServerStressBatchVsBankDelete(t *testing.T) {
	est1, est2, est3 := testBanks(t)
	srv := New(Config{MaxConcurrent: 4, QueueDepth: 1 << 20})
	for _, reg := range []struct {
		name string
		b    *bank.Bank
		db   bool
	}{{"est1", est1, true}, {"est2", est2, false}, {"est3", est3, false}} {
		if err := srv.RegisterBank(reg.name, reg.b, reg.db); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Oracle from the single-compare path, before any churn.
	_, m8est2 := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	_, m8est3 := postCompare(t, ts.URL, `{"db":"est1","query":"est3"}`)
	want := append(append([]byte(nil), m8est2...), m8est3...)

	const goroutines = 6
	const rounds = 5
	var served, missed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp := streamPost(t, ts.URL, "/v1/compare/batch",
					`{"db":"est1","queries":["est2","est3"]}`, "")
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("reading batch response: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, want) {
						t.Errorf("batch under churn differs from oracle: %d vs %d bytes",
							len(body), len(want))
						return
					}
					served.Add(1)
				case http.StatusNotFound:
					missed.Add(1) // est3 was deregistered at resolve time
				default:
					t.Errorf("batch under churn: status %d: %s", resp.StatusCode, body)
					return
				}
				// The churned bank as a blastn db: sessions are checked
				// out, and back in, while its registry entry comes and goes.
				resp = streamPost(t, ts.URL, "/v1/compare/batch",
					`{"db":"est3","queries":["est2"],"engine":"blastn"}`, "")
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("blastn batch under churn: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 40; i++ {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/banks?name=est3", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Same pointer, same content: re-registration restores the
			// exact bank, so served batches stay byte-deterministic.
			if err := srv.RegisterBank("est3", est3, false); err != nil {
				t.Errorf("re-registering churned bank: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-churnDone

	if total := served.Load() + missed.Load(); total != goroutines*rounds {
		t.Errorf("%d batches accounted for (served %d + missed %d), want %d",
			total, served.Load(), missed.Load(), goroutines*rounds)
	}
	// The churn loop always re-registers last, so a final batch over the
	// settled registry must serve the oracle bytes.
	resp := streamPost(t, ts.URL, "/v1/compare/batch", `{"db":"est1","queries":["est2","est3"]}`, "")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Errorf("post-churn batch: err=%v status=%d, %d vs %d bytes",
			err, resp.StatusCode, len(body), len(want))
	}
	// Every batch has drained: deleting the churned bank for good must
	// leave no idle session pinning it, whatever the checkins raced.
	if !srv.DeregisterBank("est3") {
		t.Fatal("final deregistration failed")
	}
	if got := srv.StatsSnapshot().Sessions.Idle; got != 0 {
		t.Errorf("sessions.idle = %d after the churned db bank was deleted, want 0", got)
	}
}

// TestServerStressJobCancelVsCompletion (run under -race in CI) creates
// a registry full of jobs and fires a DELETE at each one from a racing
// goroutine, with followers attached. Wherever the cancel lands —
// queued, mid-run, or after the job already finished — each job must
// seal exactly one terminal state, each follower must get a coherent
// stream ("complete" ⇒ oracle bytes, "cancelled" ⇒ a prefix), and the
// worker slots and registry must drain to empty.
func TestServerStressJobCancelVsCompletion(t *testing.T) {
	est1, est2, _ := testBanks(t)
	const jobCount = 12
	srv := New(Config{MaxConcurrent: 4, QueueDepth: 8, MaxJobs: jobCount})
	if err := srv.RegisterBank("est1", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("est2", est2, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, want := postCompare(t, ts.URL, `{"db":"est1","query":"est2"}`)
	comparesBefore := srv.compares.Load()

	var wg sync.WaitGroup
	for i := 0; i < jobCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := streamPost(t, ts.URL, "/v1/jobs", `{"db":"est1","query":"est2"}`, "")
			var created jobStatus
			err := json.NewDecoder(resp.Body).Decode(&created)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("job create: status %d, err %v", resp.StatusCode, err)
				return
			}
			// Follow the result, then cancel at a staggered moment so
			// deletes land across queued → running → done.
			rr := streamGet(t, ts.URL, "/v1/jobs/"+created.ID+"/result")
			time.Sleep(time.Duration(i%4) * 2 * time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
			dr, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				rr.Body.Close()
				return
			}
			io.Copy(io.Discard, dr.Body)
			dr.Body.Close()
			if dr.StatusCode != http.StatusOK {
				t.Errorf("job delete: status %d", dr.StatusCode)
			}
			body, err := io.ReadAll(rr.Body)
			rr.Body.Close()
			if err != nil {
				t.Errorf("follower read: %v", err)
				return
			}
			switch tr := rr.Trailer.Get(streamStatusTrailer); tr {
			case streamStatusComplete:
				if !bytes.Equal(body, want) {
					t.Errorf("completed job served %d bytes, want %d", len(body), len(want))
				}
			case "cancelled":
				if len(body) > len(want) {
					t.Errorf("cancelled job served %d bytes, more than a full result (%d)",
						len(body), len(want))
				}
			default:
				t.Errorf("follower trailer = %q, want complete or cancelled", tr)
			}
		}(i)
	}
	wg.Wait()

	// Every job seals exactly one terminal state; none can fail.
	waitFor(t, func() bool {
		return srv.jobsCompleted.Load()+srv.jobsCancelled.Load()+srv.jobsFailed.Load() == jobCount
	})
	if f := srv.jobsFailed.Load(); f != 0 {
		t.Errorf("jobsFailed = %d, want 0", f)
	}
	if c := srv.jobsCreated.Load(); c != jobCount {
		t.Errorf("jobsCreated = %d, want %d", c, jobCount)
	}
	if got := srv.compares.Load() - comparesBefore; got != srv.jobsCompleted.Load() {
		t.Errorf("compares grew by %d for %d completed jobs", got, srv.jobsCompleted.Load())
	}
	waitFor(t, func() bool { return len(srv.sem) == 0 })
	if js := srv.jobStats(); js.Held != 0 || js.Queued != 0 || js.Running != 0 {
		t.Errorf("registry not drained: %+v", js)
	}
}
