package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	scoris "repro"
)

// svc is what the three service workloads share: in-process servers on
// loopback TCP, one keep-alive HTTP client, and the request helpers.
// Only /v1/ routes are used.
type svc struct {
	env *env
	dir string

	client  *http.Client
	closers []func()
	// statsReads counts the /v1/stats requests made so far: the server
	// counts them as requests, and the ops' own count must not.
	statsReads int
}

func (s *svc) concurrency() int { return s.env.clients }

func (s *svc) init() error {
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * s.env.clients}}
	s.closers = append(s.closers, s.client.CloseIdleConnections)
	return os.MkdirAll(s.dir, 0o755)
}

func (s *svc) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	os.RemoveAll(s.dir)
}

// workerConfig is the server configuration of every service workload:
// as many compares at once as there are clients, one worker per
// compare, default queue, no store.
func (s *svc) workerConfig() scoris.CompareServerConfig {
	return scoris.CompareServerConfig{MaxConcurrent: s.env.clients, RequestWorkers: 1}
}

// serve mounts h on a loopback listener and returns its base URL.
func (s *svc) serve(h http.Handler) string {
	ts := httptest.NewServer(h)
	s.closers = append(s.closers, ts.Close)
	return ts.URL
}

// writeBank writes a bank's FASTA under the workload directory.
func (s *svc) writeBank(name string, fasta []byte) (string, error) {
	path := filepath.Join(s.dir, name+".fasta")
	return path, os.WriteFile(path, fasta, 0o644)
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status      int
	body        []byte
	trailer     string  // X-Scoris-Status, set on streamed responses
	firstByteMS float64 // request sent → first body byte
}

const statusTrailer = "X-Scoris-Status"

// call sends one request and reads the whole response, trailer
// included, inside a span of the given layer and name.
func (s *svc) call(ctx context.Context, tr *tracer, parent, op int, layer, name, method, target string, body []byte) (reply, error) {
	id := tr.begin(parent, op, layer, name)
	defer tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return reply{}, err
	}
	if len(body) > 0 && body[0] == '>' {
		req.Header.Set("Content-Type", "text/x-fasta")
	} else if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode}
	fb := &firstByteReader{r: resp.Body, start: start}
	if r.body, err = io.ReadAll(fb); err != nil {
		return r, fmt.Errorf("%s %s: reading response: %w", method, target, err)
	}
	r.firstByteMS = fb.firstMS
	r.trailer = resp.Trailer.Get(statusTrailer)
	if r.firstByteMS > 0 {
		tr.child(id, layer, name+"_first_byte", 0, time.Duration(r.firstByteMS*1e6))
	}
	return r, nil
}

// firstByteReader notes when the first body byte arrived.
type firstByteReader struct {
	r       io.Reader
	start   time.Time
	firstMS float64
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.firstMS == 0 {
		f.firstMS = float64(time.Since(f.start)) / 1e6
	}
	return n, err
}

// plain is call outside any op: set-up requests and counter reads.
func (s *svc) plain(ctx context.Context, method, target string, body []byte) (reply, error) {
	return s.call(ctx, nil, 0, 0, "", "", method, target, body)
}

// expect checks a reply against the status and bytes it must carry.
func expect(what string, r reply, err error, status int, want []byte) error {
	if err != nil {
		return err
	}
	if r.status != status {
		return fmt.Errorf("%s: HTTP %d, want %d: %s", what, r.status, status, bytes.TrimSpace(r.body[:min(len(r.body), 200)]))
	}
	if want != nil && !bytes.Equal(r.body, want) {
		return fmt.Errorf("%s: %d bytes that differ from the %d-byte serial reference", what, len(r.body), len(want))
	}
	return nil
}

func compareBody(db, query, extra string) []byte {
	return []byte(fmt.Sprintf(`{"db":%q,"query":%q%s}`, db, query, extra))
}

// compare runs one buffered compare and checks its bytes.
func (s *svc) compare(ctx context.Context, tr *tracer, root, op int, layer, name, base, db, query, extra string, want []byte) (int, error) {
	r, err := s.call(ctx, tr, root, op, layer, name, http.MethodPost, base+"/v1/compare", compareBody(db, query, extra))
	return len(r.body), expect(name+" "+db+" vs "+query, r, err, http.StatusOK, want)
}

// stream runs one streamed compare: the bytes must match and the
// trailer must seal the stream as complete.
func (s *svc) stream(ctx context.Context, tr *tracer, root, op int, layer, base, db, query string, want []byte) (int, error) {
	r, err := s.call(ctx, tr, root, op, layer, kindStream, http.MethodPost, base+"/v1/compare", compareBody(db, query, `,"stream":true`))
	if err = expect("stream "+db+" vs "+query, r, err, http.StatusOK, want); err == nil && r.trailer != "complete" {
		err = fmt.Errorf("stream %s vs %s: trailer %s = %q, want complete", db, query, statusTrailer, r.trailer)
	}
	return len(r.body), err
}

// batch runs one batch compare; its m8 is the queries' results in
// request order.
func (s *svc) batch(ctx context.Context, tr *tracer, root, op int, layer, base, db string, queries []string, want [][]byte) (int, error) {
	qs, _ := json.Marshal(queries)
	body := []byte(fmt.Sprintf(`{"db":%q,"queries":%s}`, db, qs))
	r, err := s.call(ctx, tr, root, op, layer, kindBatch, http.MethodPost, base+"/v1/compare/batch", body)
	return len(r.body), expect("batch vs "+db, r, err, http.StatusOK, bytes.Join(want, nil))
}

// job runs one async job to its end: submit, follow the result stream,
// delete the record.
func (s *svc) job(ctx context.Context, tr *tracer, root, op int, base, db, query string, want []byte) (int, error) {
	id := tr.begin(root, op, "server", kindJob)
	defer tr.end(id)
	r, err := s.call(ctx, tr, id, op, "server", "job_submit", http.MethodPost, base+"/v1/jobs", compareBody(db, query, ""))
	if err = expect("job submit", r, err, http.StatusAccepted, nil); err != nil {
		return 0, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(r.body, &st); err != nil || st.ID == "" {
		return 0, fmt.Errorf("job submit: no id in %q", r.body)
	}
	res, err := s.call(ctx, tr, id, op, "server", "job_result", http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	if err = expect("job result", res, err, http.StatusOK, want); err == nil && res.trailer != "complete" {
		err = fmt.Errorf("job result: trailer %s = %q, want complete", statusTrailer, res.trailer)
	}
	if err != nil {
		return 0, err
	}
	r, err = s.call(ctx, tr, id, op, "server", "job_delete", http.MethodDelete, base+"/v1/jobs/"+st.ID, nil)
	return len(res.body), expect("job delete", r, err, http.StatusOK, nil)
}

// registerPath registers a FASTA file the server can read as a db bank.
func (s *svc) registerPath(ctx context.Context, base, name, path string) (reply, error) {
	body := []byte(fmt.Sprintf(`{"name":%q,"path":%q,"db":true}`, name, path))
	r, err := s.plain(ctx, http.MethodPost, base+"/v1/banks", body)
	return r, expect("register "+name, r, err, http.StatusOK, nil)
}

// upload registers a query bank from a FASTA body.
func (s *svc) upload(ctx context.Context, tr *tracer, root, op int, base, name string, fasta []byte) error {
	r, err := s.call(ctx, tr, root, op, "server", "upload", http.MethodPost, base+"/v1/banks?name="+url.QueryEscape(name), fasta)
	return expect("upload "+name, r, err, http.StatusOK, nil)
}

func (s *svc) deleteBank(ctx context.Context, tr *tracer, root, op int, base, name string) error {
	r, err := s.call(ctx, tr, root, op, "server", "delete", http.MethodDelete, base+"/v1/banks?name="+url.QueryEscape(name), nil)
	return expect("delete "+name, r, err, http.StatusOK, nil)
}

// serverCounters reads a worker's /v1/stats into metric names.
func (s *svc) serverCounters(ctx context.Context, base string) (metricSet, error) {
	s.statsReads++
	r, err := s.plain(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err = expect("stats", r, err, http.StatusOK, nil); err != nil {
		return nil, err
	}
	var st scoris.CompareServerStats
	if err := json.Unmarshal(r.body, &st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return metricSet{
		"ixcache.lookups": float64(st.Cache.Lookups), "ixcache.builds": float64(st.Cache.Builds),
		"ixcache.evictions": float64(st.Cache.Evictions), "ixcache.disk_hits": float64(st.Cache.DiskHits),
		"server.requests": float64(st.Server.Requests - int64(s.statsReads)), "server.admissions": float64(st.Server.Admissions),
		"server.rejected": float64(st.Server.Rejected), "server.abandoned": float64(st.Server.Abandoned),
		"server.timed_out": float64(st.Server.TimedOut), "server.compares": float64(st.Server.Compares),
	}, nil
}

// parallel runs the jobs on n goroutines and returns the first error.
func parallel(n int, jobs []func() error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= len(jobs) {
					return
				}
				if err := jobs[i](); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// svcOp is one position of a service workload's op list.
type svcOp struct {
	kind    string
	db      int
	queries []int
}

// shuffledKinds returns a seeded shuffle of the given kind counts.
func (e *env) shuffledKinds(counts []kindCount) []string {
	var kinds []string
	for _, kc := range counts {
		for k := 0; k < kc.n; k++ {
			kinds = append(kinds, kc.kind)
		}
	}
	e.rng(streamOps).Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

type kindCount struct {
	kind string
	n    int
}
