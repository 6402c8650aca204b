package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/fleet/chaos"
	"repro/internal/httpapi"
	"repro/internal/ixdisk"
	"repro/internal/server"
	"repro/internal/simulate"
	"repro/internal/tabular"
)

// testWorker is one in-process scorisd behind its chaos proxy.
type testWorker struct {
	name string
	srv  *server.Server
	px   *chaos.Proxy
}

// testCfg is a Config tuned for test speed: tight probes, tiny backoff.
func testCfg() Config {
	return Config{
		Replication:   2,
		ProbeInterval: time.Hour, // probes fire via ProbeAll, deterministically
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		MaxAttempts:   6,
		RetryBase:     2 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
	}
}

// newTestFleet builds n chaos-wrapped workers and a router over them.
// wcfg(i) shapes each worker (nil: a default 2-slot pool).
func newTestFleet(t *testing.T, n int, cfg Config, wcfg func(i int) server.Config) (*Router, []*testWorker, *httptest.Server) {
	t.Helper()
	if wcfg == nil {
		wcfg = func(int) server.Config { return server.Config{MaxConcurrent: 2, RequestWorkers: 1} }
	}
	rt := New(cfg)
	workers := make([]*testWorker, n)
	for i := range workers {
		srv := server.New(wcfg(i))
		px, err := chaos.New(srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		name := fmt.Sprintf("w%d", i+1)
		workers[i] = &testWorker{name: name, srv: srv, px: px}
		if err := rt.AddWorker(name, px.URL()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(rt.Stop)
	return rt, workers, ts
}

func workerByName(workers []*testWorker, name string) *testWorker {
	for _, w := range workers {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fastaBytes renders a bank back to FASTA text (registration bodies).
func fastaBytes(t *testing.T, b *bank.Bank) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := fasta.NewWriter(&buf)
	for i := 0; i < b.NumSeqs(); i++ {
		rec := &fasta.Record{ID: b.SeqID(i), Desc: b.SeqDesc(i), Seq: dna.Decode(b.SeqCodes(i))}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// registerBank registers b through the router by FASTA body and returns
// the router's bank info (key, owner order).
func registerBank(t *testing.T, routerURL, name string, b *bank.Bank, db bool) bankInfo {
	t.Helper()
	u := routerURL + "/v1/banks?name=" + name
	if db {
		u += "&db=1"
	}
	resp, err := http.Post(u, "text/x-fasta", bytes.NewReader(fastaBytes(t, b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info bankInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering %q: status %d: %+v", name, resp.StatusCode, info)
	}
	return info
}

func testBanks(t *testing.T) (est1, est2 *bank.Bank) {
	t.Helper()
	ds := simulate.NewDataSet(256)
	return ds.Get(simulate.EST1), ds.Get(simulate.EST2)
}

// oracle computes the reference m8 bytes the fleet must serve
// byte-identically, whichever worker answers.
func oracle(t *testing.T, db, query *bank.Bank) []byte {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Workers = 1
	res, err := core.Compare(db, query, opt)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]tabular.Record, len(res.Alignments))
	for i := range res.Alignments {
		recs[i] = tabular.FromAlignment(&res.Alignments[i], db, query)
	}
	var buf bytes.Buffer
	if err := tabular.Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postCompare(t *testing.T, routerURL string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(routerURL+"/v1/compare", "application/json",
		strings.NewReader(`{"db":"db","query":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// wave fires n concurrent compares and returns each status and body.
func wave(t *testing.T, routerURL string, n int) ([]int, [][]byte) {
	t.Helper()
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(routerURL+"/v1/compare", "application/json",
				strings.NewReader(`{"db":"db","query":"q"}`))
			if err != nil {
				statuses[i] = -1
				bodies[i] = []byte(err.Error())
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			statuses[i] = resp.StatusCode
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	return statuses, bodies
}

func assertWaveIdentical(t *testing.T, statuses []int, bodies [][]byte, want []byte) {
	t.Helper()
	for i, s := range statuses {
		if s != http.StatusOK {
			t.Fatalf("wave request %d: status %d: %s", i, s, bodies[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("wave request %d differs from the oracle (%d vs %d bytes)", i, len(bodies[i]), len(want))
		}
	}
}

// TestFleetAffinityRouting: compares for one bank land on its first
// rendezvous owner — and only there — while the fleet is healthy, so
// the prepared index stays hot on exactly the owning workers.
func TestFleetAffinityRouting(t *testing.T) {
	est1, est2 := testBanks(t)
	_, workers, ts := newTestFleet(t, 3, testCfg(), nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	if len(info.Owners) != 2 {
		t.Fatalf("replication-2 bank has %d owners: %+v", len(info.Owners), info)
	}
	if len(info.RegisteredOn) != 2 {
		t.Fatalf("registration reached %d owners, want 2: %+v", len(info.RegisteredOn), info)
	}

	want := oracle(t, est1, est2)
	for i := 0; i < 4; i++ {
		status, header, body := postCompare(t, ts.URL)
		if status != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("compare %d: status %d, %d bytes (want %d)", i, status, len(body), len(want))
		}
		// The router asks a worker for a stream only on a streamed job.
		if m := header.Get(httpapi.StreamHeader); m != "" {
			t.Fatalf("compare %d: buffered compare answered with %s: %q", i, httpapi.StreamHeader, m)
		}
	}

	owner := workerByName(workers, info.Owners[0])
	if got := owner.srv.StatsSnapshot().Server.Compares; got != 4 {
		t.Errorf("first owner served %d compares, want all 4", got)
	}
	for _, w := range workers {
		if w == owner {
			continue
		}
		if got := w.srv.StatsSnapshot().Server.Compares; got != 0 {
			t.Errorf("non-primary worker %s served %d compares, want 0 (affinity broken)", w.name, got)
		}
	}
}

// TestFleetWorkerDeathMidSweep is the first chaos criterion: 1 of 3
// workers dies (the bank's primary owner, the worst case) and a
// concurrent wave of compares completes with zero client-visible
// failures, every response byte-identical to the single-process
// baseline, with the retries visible in the router's ledger.
func TestFleetWorkerDeathMidSweep(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	// One warm-up compare so the wave measures failover, not cold
	// builds stacking on the surviving owner.
	if status, _, body := postCompare(t, ts.URL); status != http.StatusOK {
		t.Fatalf("warm-up compare: status %d: %s", status, body)
	}

	// Kill the primary owner. The router has not probed since — it
	// still believes the worker is Up, so the wave's first attempts
	// hit a corpse and must fail over.
	owner := workerByName(workers, info.Owners[0])
	owner.px.Kill()

	statuses, bodies := wave(t, ts.URL, 8)
	assertWaveIdentical(t, statuses, bodies, want)

	st := rt.StatsSnapshot(context.Background())
	if st.Router.Failovers < 1 || st.Router.Retries < 1 {
		t.Errorf("death went unnoticed: failovers=%d retries=%d, want >= 1", st.Router.Failovers, st.Router.Retries)
	}
	if st.Router.Shed != 0 {
		t.Errorf("router shed %d compares with a live replica available", st.Router.Shed)
	}
	// The corpse was marked Down by the data path, without waiting for
	// probe periods.
	rt.mu.RLock()
	deadState := rt.workers[owner.name].State()
	rt.mu.RUnlock()
	if deadState != StateDown {
		t.Errorf("killed worker state = %v, want down", deadState)
	}

	// A genuinely mid-wave kill of the replacement owner: start the
	// wave, then kill while it is in flight. Zero failures either way.
	survivor := workerByName(workers, info.Owners[1])
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(10 * time.Millisecond)
		survivor.px.Kill()
	}()
	statuses, bodies = wave(t, ts.URL, 8)
	<-done
	assertWaveIdentical(t, statuses, bodies, want)
}

// TestFleetHungWorkerDeadline is the second chaos criterion: a worker
// that hangs past its per-attempt deadline is abandoned and the wave
// completes elsewhere — zero failed responses, zero hangs.
func TestFleetHungWorkerDeadline(t *testing.T) {
	est1, est2 := testBanks(t)
	cfg := testCfg()
	cfg.CompareTimeout = 30 * time.Second
	cfg.AttemptTimeout = 300 * time.Millisecond
	rt, workers, ts := newTestFleet(t, 3, cfg, nil)

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)
	// Every worker holds both banks and both indexes before the fault, so
	// the wave measures the deadline and the failover — not whether a cold
	// replica can take two banks and build two indexes inside one
	// AttemptTimeout, which under -race on two cores it cannot.
	for _, w := range workers {
		registerBank(t, w.px.URL(), "db", est1, true)
		registerBank(t, w.px.URL(), "q", est2, false)
		if status, _, body := postCompare(t, w.px.URL()); status != http.StatusOK {
			t.Fatalf("warming %s: status %d: %s", w.name, status, body)
		}
	}

	workerByName(workers, info.Owners[0]).px.Set(chaos.Hang)

	start := time.Now()
	statuses, bodies := wave(t, ts.URL, 4)
	assertWaveIdentical(t, statuses, bodies, want)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("wave took %v against one hung worker — the deadline is not biting", elapsed)
	}

	st := rt.StatsSnapshot(context.Background())
	if st.Router.Failovers < 1 {
		t.Errorf("hung worker produced no failovers (%+v)", st.Router)
	}

	// The health loop notices too: probes hang, time out, and the
	// worker goes Down after FailThreshold consecutive failures.
	rt.ProbeAll()
	rt.ProbeAll()
	rt.mu.RLock()
	hungState := rt.workers[info.Owners[0]].State()
	rt.mu.RUnlock()
	if hungState != StateDown {
		t.Errorf("hung worker state = %v after %d failed probes, want down", hungState, 2)
	}
}

// TestFleetAllDownSheds is the third chaos criterion: with every worker
// dead the router answers promptly with 503 + Retry-After — it never
// hangs and never queues toward collapse.
func TestFleetAllDownSheds(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)
	registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)

	for _, w := range workers {
		w.px.Kill()
	}

	start := time.Now()
	status, header, body := postCompare(t, ts.URL)
	elapsed := time.Since(start)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all-down compare: status %d: %s", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if elapsed > 5*time.Second {
		t.Errorf("all-down shed took %v — degradation must answer fast", elapsed)
	}
	if rt.shed.Load() < 1 {
		t.Error("shed counter did not move")
	}

	// The router's own readiness reflects the dead fleet (the workers
	// are marked Down once the data path or probes notice).
	rt.ProbeAll()
	rt.ProbeAll()
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("router /readyz over a dead fleet: status %d, want 503", resp.StatusCode)
	}
}

// TestFleetCorruptResponseRetried: a truncated response (full
// Content-Length declared, half the body delivered) must never reach
// the client — the router detects the short read and retries on the
// next replica.
func TestFleetCorruptResponseRetried(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)
	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)
	if len(want) == 0 {
		t.Fatal("oracle produced an empty m8 — corrupt truncation needs a body")
	}
	if status, _, body := postCompare(t, ts.URL); status != http.StatusOK {
		t.Fatalf("warm-up compare: status %d: %s", status, body)
	}

	workerByName(workers, info.Owners[0]).px.Set(chaos.Corrupt)

	status, _, body := postCompare(t, ts.URL)
	if status != http.StatusOK {
		t.Fatalf("compare against a corrupting owner: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("client received corrupt bytes (%d vs %d)", len(body), len(want))
	}
	if rt.failovers.Load() < 1 {
		t.Error("corrupt response did not register as a failover")
	}
}

// TestFleet429BackoffRetry: a saturated worker's 429 is retried with
// backoff on the next replica — and a 429 is backpressure, not death,
// so the worker must stay Up.
func TestFleet429BackoffRetry(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)
	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)
	if status, _, body := postCompare(t, ts.URL); status != http.StatusOK {
		t.Fatalf("warm-up compare: status %d: %s", status, body)
	}

	workerByName(workers, info.Owners[0]).px.Set(chaos.Reject)

	status, _, body := postCompare(t, ts.URL)
	if status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("compare against a 429ing owner: status %d", status)
	}
	if rt.retries.Load() < 1 {
		t.Error("429 did not register as a retry")
	}
	rt.mu.RLock()
	state := rt.workers[info.Owners[0]].State()
	rt.mu.RUnlock()
	if state != StateUp {
		t.Errorf("429ing worker state = %v, want up (backpressure is not death)", state)
	}
	if rt.failovers.Load() != 0 {
		t.Errorf("429 counted as %d failovers, want 0", rt.failovers.Load())
	}
}

// TestFleetDrainingRoutesAway: a worker whose /readyz flips to 503
// (graceful drain) stops receiving new routes — without being treated
// as a failure — and returns to Up when readiness returns.
func TestFleetDrainingRoutesAway(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 3, testCfg(), nil)
	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	primary := workerByName(workers, info.Owners[0])
	primary.srv.SetDraining(true)
	rt.ProbeAll()
	rt.mu.RLock()
	state := rt.workers[primary.name].State()
	rt.mu.RUnlock()
	if state != StateDraining {
		t.Fatalf("draining worker state = %v, want draining", state)
	}

	status, _, body := postCompare(t, ts.URL)
	if status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("compare during drain: status %d", status)
	}
	if got := primary.srv.StatsSnapshot().Server.Compares; got != 0 {
		t.Errorf("draining worker served %d compares, want 0", got)
	}
	if rt.failovers.Load() != 0 {
		t.Errorf("draining skip counted as %d failovers, want 0", rt.failovers.Load())
	}

	// Drain cancelled (or a store blip resolved): the worker rejoins.
	primary.srv.SetDraining(false)
	rt.ProbeAll()
	rt.mu.RLock()
	state = rt.workers[primary.name].State()
	rt.mu.RUnlock()
	if state != StateUp {
		t.Errorf("un-drained worker state = %v, want up", state)
	}
}

// TestFleetBackfillAndStoreWarmFailover: with replication 1 the bank
// lives on exactly one worker; when that worker dies, failover lands on
// a worker that never saw the bank. The router backfills the
// registration, and — because the workers share one -index-dir store —
// the replacement warms the index from disk with zero builds.
func TestFleetBackfillAndStoreWarmFailover(t *testing.T) {
	est1, est2 := testBanks(t)
	dir := t.TempDir()
	stores := make([]*ixdisk.DirStore, 3)
	cfg := testCfg()
	cfg.Replication = 1
	rt, workers, ts := newTestFleet(t, 3, cfg, func(i int) server.Config {
		st, err := ixdisk.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		return server.Config{MaxConcurrent: 2, RequestWorkers: 1, Store: st}
	})

	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)
	if len(info.Owners) != 1 {
		t.Fatalf("replication-1 bank has %d owners", len(info.Owners))
	}

	// First compare: the lone owner builds and persists both indexes.
	if status, _, body := postCompare(t, ts.URL); status != http.StatusOK {
		t.Fatalf("warm-up compare: status %d: %s", status, body)
	}
	owner := workerByName(workers, info.Owners[0])
	waitFor(t, func() bool { return countOrix(t, dir) >= 2 })

	owner.px.Kill()

	status, _, body := postCompare(t, ts.URL)
	if status != http.StatusOK {
		t.Fatalf("failover compare: status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("failover compare differs from the oracle")
	}
	if rt.backfills.Load() < 1 {
		t.Error("failover to an ignorant worker did not backfill")
	}

	// The replacement served from the shared cold tier: disk hits, no
	// fresh builds.
	var replacement *testWorker
	for _, w := range workers {
		if w != owner && w.srv.StatsSnapshot().Server.Compares > 0 {
			replacement = w
		}
	}
	if replacement == nil {
		t.Fatal("no replacement worker served the failover compare")
	}
	cs := replacement.srv.Cache().Counters()
	if cs.Builds != 0 || cs.DiskHits < 2 {
		t.Errorf("replacement worker builds=%d disk_hits=%d, want 0 builds and >= 2 disk hits (cold-tier warm start)", cs.Builds, cs.DiskHits)
	}
}

// TestFleetWorkerRecovery: death is not forever — a killed worker that
// comes back is probed back to Up and takes its routes again.
func TestFleetWorkerRecovery(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 2, testCfg(), nil)
	info := registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)

	primary := workerByName(workers, info.Owners[0])
	primary.px.Kill()
	if status, _, _ := postCompare(t, ts.URL); status != http.StatusOK {
		t.Fatal("compare during outage failed despite a live replica")
	}
	rt.mu.RLock()
	state := rt.workers[primary.name].State()
	rt.mu.RUnlock()
	if state != StateDown {
		t.Fatalf("killed worker state = %v, want down", state)
	}

	if err := primary.px.Restart(); err != nil {
		t.Fatal(err)
	}
	rt.ProbeAll()
	rt.mu.RLock()
	state = rt.workers[primary.name].State()
	rt.mu.RUnlock()
	if state != StateUp {
		t.Fatalf("restarted worker state = %v, want up", state)
	}
	before := primary.srv.StatsSnapshot().Server.Compares
	status, _, body := postCompare(t, ts.URL)
	if status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("post-recovery compare: status %d", status)
	}
	if after := primary.srv.StatsSnapshot().Server.Compares; after != before+1 {
		t.Errorf("recovered primary did not take its route back (compares %d -> %d)", before, after)
	}
}

// TestFleetStatsAggregation: /stats rolls the per-worker ledgers into
// fleet totals and reports the router's own robustness counters.
func TestFleetStatsAggregation(t *testing.T) {
	est1, est2 := testBanks(t)
	_, _, ts := newTestFleet(t, 3, testCfg(), nil)
	registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	for i := 0; i < 3; i++ {
		if status, _, body := postCompare(t, ts.URL); status != http.StatusOK {
			t.Fatalf("compare %d: status %d: %s", i, status, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Totals.Compares != 3 {
		t.Errorf("fleet total compares = %d, want 3", st.Totals.Compares)
	}
	if st.Totals.Builds != 2 {
		t.Errorf("fleet total builds = %d, want 2 (db + query, once each)", st.Totals.Builds)
	}
	if len(st.Workers) != 3 || st.Router.WorkersUp != 3 {
		t.Errorf("worker roster off: %+v", st.Router)
	}
	if st.Router.Banks != 2 || st.Router.Compares != 3 {
		t.Errorf("router counters off: %+v", st.Router)
	}
}

// TestFleetAPIEdges: the router's own 4xx surface.
func TestFleetAPIEdges(t *testing.T) {
	est1, _ := testBanks(t)
	_, _, ts := newTestFleet(t, 2, testCfg(), nil)

	// Compare against an unregistered bank: 404 from the router itself.
	resp, err := http.Post(ts.URL+"/v1/compare", "application/json",
		strings.NewReader(`{"db":"ghost","query":"ghost"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown bank: status %d, want 404", resp.StatusCode)
	}

	// A client-shaped 4xx from the worker is relayed, not retried.
	registerBank(t, ts.URL, "db", est1, true)
	resp, err = http.Post(ts.URL+"/v1/compare", "application/json",
		strings.NewReader(`{"db":"db","self":true,"engine":"blat"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("engine misuse: status %d, want 400 relayed from the worker", resp.StatusCode)
	}

	// Conflicting re-registration is refused by the router.
	other := simulate.NewDataSet(256).Get(simulate.EST3)
	u := ts.URL + "/v1/banks?name=db"
	resp, err = http.Post(u, "text/x-fasta", bytes.NewReader(fastaBytes(t, other)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting bank re-registration: status %d, want 409", resp.StatusCode)
	}

	// GET /workers lists the roster with states.
	resp, err = http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var infos []workerInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil || len(infos) != 2 || infos[0].State != "up" {
		t.Errorf("worker listing off: %+v (err %v)", infos, err)
	}

	// The router serves under /v1 only: every route is a 404 at its
	// bare path, and is served at its /v1 path.
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/compare", "/compare/batch", "/banks", "/workers", "/stats", "/healthz", "/readyz"} {
		if code := get(path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
		if code := get("/v1" + path); code == http.StatusNotFound {
			t.Errorf("GET /v1%s: status 404, want the route served", path)
		}
	}
}

// TestFleetBankBodiesMatchWorker: the router parses POST /banks bodies
// with the worker's own parser, so a worker and the router in front of
// it take and refuse the same bodies — a body the worker would refuse
// is the router's own 4xx, never a fan-out that ends in a 502.
func TestFleetBankBodiesMatchWorker(t *testing.T) {
	est1, _ := testBanks(t)
	path := filepath.Join(t.TempDir(), "db.fasta")
	if err := os.WriteFile(path, fastaBytes(t, est1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, workers, ts := newTestFleet(t, 1, testCfg(), nil)
	for _, c := range []struct {
		why, params, body string
		want              int
	}{
		{"FASTA without ?name=", "", ">r1\nACGTACGT\n", http.StatusBadRequest},
		{"JSON without a path", "", `{"name":"x","db":true}`, http.StatusBadRequest},
		{"FASTA header without a sequence", "?name=bare", ">r1\n", http.StatusOK},
		{"JSON with an unknown field", "", fmt.Sprintf(`{"name":"x","path":%q,"bd":true}`, path), http.StatusBadRequest},
		{"FASTA with ?name=", "?name=fa&db=1", ">r1\nACGTACGT\n", http.StatusOK},
		{"JSON spec", "", fmt.Sprintf(`{"name":"js","path":%q,"db":true}`, path), http.StatusOK},
	} {
		for _, d := range []struct{ name, url string }{{"worker", workers[0].px.URL()}, {"router", ts.URL}} {
			resp, err := http.Post(d.url+"/v1/banks"+c.params, "application/octet-stream", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode/100 != c.want/100 {
				t.Errorf("%s via the %s: status %d, want %d", c.why, d.name, resp.StatusCode, c.want)
			}
		}
	}
}

// TestFleetBoundsCompareBody: both compare routes read their JSON body
// through the one preamble's bound. A body of exactly httpapi.MaxCompareBody
// bytes is routed and served (the worker's bound is the same); one byte
// more is the router's own 413 — counted as a request, not a compare,
// and never sent to a worker.
func TestFleetBoundsCompareBody(t *testing.T) {
	est1, est2 := testBanks(t)
	rt, workers, ts := newTestFleet(t, 2, testCfg(), nil)
	registerBank(t, ts.URL, "db", est1, true)
	registerBank(t, ts.URL, "q", est2, false)
	want := oracle(t, est1, est2)
	padded := func(obj string, n int) string {
		return obj[:len(obj)-1] + strings.Repeat(" ", n-len(obj)) + "}"
	}
	workerRequests := func() (n int64) {
		for _, w := range workers {
			n += w.srv.StatsSnapshot().Server.Requests
		}
		return n
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/compare", `{"db":"db","query":"q"}`},
		{"/v1/compare/batch", `{"db":"db","queries":["q"]}`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(padded(c.body, httpapi.MaxCompareBody)))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want) {
			t.Errorf("POST %s at the bound: status %d, %d bytes, want 200 and the oracle's %d", c.path, resp.StatusCode, got.Len(), len(want))
		}

		requests, compares, sent := rt.requests.Load(), rt.compares.Load(), workerRequests()
		resp, err = http.Post(ts.URL+c.path, "application/json", strings.NewReader(padded(c.body, httpapi.MaxCompareBody+1)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s one byte past the bound: status %d, want 413", c.path, resp.StatusCode)
		}
		if r, cmp, w := rt.requests.Load(), rt.compares.Load(), workerRequests(); r != requests+1 || cmp != compares || w != sent {
			t.Errorf("POST %s past the bound: requests %d→%d, compares %d→%d, worker requests %d→%d; want +1, +0, +0",
				c.path, requests, r, compares, cmp, sent, w)
		}
	}
}

func countOrix(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".orix") {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
