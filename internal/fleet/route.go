package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// Stream relay vocabulary, mirroring the worker's (internal/server):
// the Accept value that asks for a streamed m8 compare, the response
// header that marks one, and the trailer that seals it.
const (
	streamAccept        = "text/x-m8-stream"
	streamMarkerHeader  = "X-Scoris-Stream"
	streamStatusTrailer = "X-Scoris-Status"
	streamComplete      = "complete"
)

// routeJob is one routable worker request: the worker path, the client
// body forwarded verbatim, the banks involved (identity for rendezvous,
// registration specs for backfill), and the delivery shape.
type routeJob struct {
	path    string
	body    []byte
	db      *bankRecord
	queries []*bankRecord
	stream  bool
}

// maxCompareBody bounds a compare request's JSON body, at the worker's
// own bound (internal/server): bank names and a handful of options, so a
// body past 1 MiB is answered 413 before it is read. Bank uploads are
// FASTA of arbitrary size and are not bounded here.
const maxCompareBody = 1 << 20

// handleCompare routes one comparison: rendezvous order over the db
// bank's content key, retrying across replicas until a worker answers
// or the attempt budget / deadline runs out. Compares are idempotent
// and workers answer byte-identically for the same (bank, options), so
// failover can never corrupt a result — only save it.
func (rt *Router) handleCompare(w http.ResponseWriter, r *http.Request) {
	rt.serveCompare(w, r, false)
}

// handleCompareBatch routes a batched comparison (one db, many query
// banks) to a single worker, which serves the whole set under one
// admission slot. The batch is buffered end to end — its failure story
// is the plain compare's (full-response failover), routed by the db
// bank like any other compare.
func (rt *Router) handleCompareBatch(w http.ResponseWriter, r *http.Request) {
	rt.serveCompare(w, r, true)
}

// serveCompare is the preamble both compare routes share: method, the
// bounded body, the fields the router itself reads — {db, query or
// queries, stream}; the rest travels to the worker verbatim — the banks'
// records, the deadline, then routeCompare.
func (rt *Router) serveCompare(w http.ResponseWriter, r *http.Request, batch bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCompareBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, "reading compare request: %v", err)
		return
	}
	var req struct {
		DB      string   `json:"db"`
		Query   string   `json:"query"`
		Queries []string `json:"queries"`
		Stream  bool     `json:"stream"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad compare request: %v", err)
		return
	}
	job := routeJob{path: "/compare", body: body}
	var names []string
	switch {
	case batch:
		job.path, names = "/compare/batch", req.Queries
		if req.DB == "" || len(names) == 0 {
			httpError(w, http.StatusBadRequest, "batch request needs a db bank and a non-empty queries list")
			return
		}
	case req.DB == "":
		httpError(w, http.StatusBadRequest, "compare request needs a db bank name")
		return
	default:
		job.stream = req.Stream || strings.Contains(r.Header.Get("Accept"), streamAccept)
		if req.Query != "" {
			names = []string{req.Query}
		}
	}
	missing := ""
	rt.mu.RLock()
	job.db = rt.banks[req.DB]
	for _, name := range names {
		rec := rt.banks[name]
		if rec == nil {
			missing = name
			break
		}
		job.queries = append(job.queries, rec)
	}
	rt.mu.RUnlock()
	if job.db == nil {
		httpError(w, http.StatusNotFound, "unknown db bank %q (register it with POST /banks on the router)", req.DB)
		return
	}
	if missing != "" {
		httpError(w, http.StatusNotFound, "unknown query bank %q (register it with POST /banks on the router)", missing)
		return
	}

	ctx := r.Context()
	if rt.cfg.CompareTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.CompareTimeout)
		defer cancel()
	}
	rt.routeCompare(ctx, w, job)
}

// routeCompare walks the db bank's rendezvous ring until some live
// worker produces a result.
//
// The degradation ladder, in order of preference: answer from the
// owner; answer from the next live replica (retry with backoff);
// backfill a worker that never saw the bank and answer from it; and
// only when no live replica remains — or the attempt budget is spent —
// shed with an honest 503 + Retry-After. A deadline expiry answers 504.
// The one thing the router never does is hang or queue unboundedly: a
// fleet that is down says so immediately.
//
// Streamed jobs walk the same ladder with one extra rule: an attempt is
// retryable only until its first relayed body byte. Once bytes have
// reached the client the router is committed to that worker, and an
// upstream death seals the client's stream with a torn trailer instead
// of failing over (a second worker's stream could not be spliced onto a
// half-written one).
func (rt *Router) routeCompare(ctx context.Context, w http.ResponseWriter, job routeJob) {
	candidates := rt.rank(job.db.Key)
	if len(candidates) == 0 {
		rt.shedCompare(w, job.db, "no workers registered")
		return
	}
	var (
		attempts  int
		cursor    int
		lastFail  string
		backfills = make(map[string]bool)
	)
	for attempts < rt.cfg.MaxAttempts {
		wk := nextUp(candidates, &cursor)
		if wk == nil {
			// No live replica at all — shed now, promptly; backoff
			// would just be a disguised hang.
			break
		}
		if attempts > 0 {
			rt.retries.Add(1)
		}
		attempts++
		var (
			status   int
			header   http.Header
			respBody []byte
			err      error
		)
		if job.stream {
			var done bool
			done, status, header, respBody, err = rt.forwardStream(ctx, w, wk, job)
			if done {
				// Bytes were relayed (or the stream completed): the
				// response is already written, trailer included.
				return
			}
		} else {
			status, header, respBody, err = rt.forward(ctx, wk, job.path, job.body)
		}
		switch {
		case err != nil:
			if ctx.Err() != nil {
				rt.finishCtx(w, ctx)
				return
			}
			// Transport failure: connection refused, reset mid-body,
			// truncated response, per-attempt deadline. The worker is
			// presumed dead until a probe says otherwise; the compare
			// moves on immediately after backoff.
			rt.noteCompareFailure(wk, err)
			rt.failovers.Add(1)
			lastFail = fmt.Sprintf("%s: %v", wk.Name, err)
			if !rt.backoff(ctx, attempts) {
				rt.finishCtx(w, ctx)
				return
			}
		case status == http.StatusNotFound && bytes.Contains(respBody, []byte("unknown")):
			// Failover landed on a worker that never saw the bank(s).
			// Replay the registrations (idempotent; with a shared store
			// the worker warms the index from disk) and try it again.
			if backfills[wk.Name] {
				lastFail = wk.Name + ": unknown bank even after backfill"
				continue
			}
			backfills[wk.Name] = true
			if err := rt.backfillBanks(ctx, wk, job.db, job.queries); err != nil {
				rt.noteCompareFailure(wk, err)
				lastFail = fmt.Sprintf("%s: backfill: %v", wk.Name, err)
				continue
			}
			rt.backfills.Add(1)
			cursor-- // retry the freshly backfilled worker first
		case status == http.StatusTooManyRequests:
			// The worker is alive but saturated. Back off and try the
			// next replica (with one worker, the same one again).
			lastFail = wk.Name + ": at capacity (429)"
			if !rt.backoff(ctx, attempts) {
				rt.finishCtx(w, ctx)
				return
			}
		case status >= http.StatusInternalServerError:
			rt.noteCompareFailure(wk, fmt.Errorf("HTTP %d", status))
			rt.failovers.Add(1)
			lastFail = fmt.Sprintf("%s: HTTP %d", wk.Name, status)
			if !rt.backoff(ctx, attempts) {
				rt.finishCtx(w, ctx)
				return
			}
		default:
			// Success — or a client-shaped 4xx (bad options, unknown
			// engine) that every replica would answer identically:
			// relay verbatim either way.
			rt.relay(w, status, header, respBody)
			if status < http.StatusMultipleChoices {
				rt.compares.Add(1)
			}
			return
		}
	}
	if lastFail == "" {
		lastFail = "no live replica"
	}
	rt.shedCompare(w, job.db, lastFail)
}

// nextUp scans the ring from the cursor for the next Up worker, at most
// one full lap per call. Draining and Down workers are routing-time
// holes in the ring, not ownership changes.
func nextUp(candidates []*worker, cursor *int) *worker {
	for scanned := 0; scanned < len(candidates); scanned++ {
		wk := candidates[*cursor%len(candidates)]
		*cursor++
		if wk.State() == StateUp {
			return wk
		}
	}
	return nil
}

// forward sends a buffered request to one worker and buffers the full
// response. Buffering is deliberate: the relay to the client starts
// only after a complete, length-consistent body is in hand, so a worker
// dying mid-response (or a chaos-corrupted stream) surfaces here as a
// retryable error instead of a half-written client response.
func (rt *Router) forward(ctx context.Context, wk *worker, path string, body []byte) (int, http.Header, []byte, error) {
	actx := ctx
	if rt.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, wk.api(path), bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, b, nil
}

// forwardStream forwards a streamed compare to one worker and, once the
// worker's stream yields its first body byte, relays it to the client
// chunk by chunk — no full-response buffering, so the client's first
// byte arrives while the worker's engine is still running.
//
// The commitment point is that first body byte. Before it, the attempt
// is abortable like any buffered one: transport failures return to the
// retry ladder (done=false, err set) and non-stream responses — 404s to
// backfill, 429s, 5xxes, client-shaped 4xxes — return buffered for the
// ladder to judge. After it, done=true: the response is written here,
// and an upstream death mid-relay seals the stream with an "error"
// trailer (and marks the worker Down) rather than failing over. A
// stream that reaches a clean upstream EOF relays the worker's own
// X-Scoris-Status trailer; an upstream that ends without one is torn by
// definition and sealed "error" — silence never impersonates success.
//
// The per-attempt deadline bounds only the time to the commitment
// point; a committed relay runs as long as the compare does.
func (rt *Router) forwardStream(ctx context.Context, w http.ResponseWriter, wk *worker, job routeJob) (done bool, status int, header http.Header, respBody []byte, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	var attemptTimer *time.Timer
	if rt.cfg.AttemptTimeout > 0 {
		attemptTimer = time.AfterFunc(rt.cfg.AttemptTimeout, cancel)
		defer attemptTimer.Stop()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, wk.api(job.path), bytes.NewReader(job.body))
	if err != nil {
		return false, 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", streamAccept)
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, 0, nil, nil, err
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(streamMarkerHeader) != "m8" {
		// Not a stream (error status, or a worker that answered
		// buffered): buffer it and let the retry ladder judge.
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return false, 0, nil, nil, fmt.Errorf("reading response: %w", rerr)
		}
		return false, resp.StatusCode, resp.Header, b, nil
	}
	defer resp.Body.Close()

	// Pull the first body byte before touching the client response:
	// a worker that dies between its headers and its first chunk is
	// still a failover, not a torn stream.
	buf := make([]byte, 32<<10)
	n, rerr := resp.Body.Read(buf)
	if n == 0 && rerr != nil && !errors.Is(rerr, io.EOF) {
		return false, 0, nil, nil, fmt.Errorf("stream died before first byte: %w", rerr)
	}
	if attemptTimer != nil {
		attemptTimer.Stop() // committed: the relay outlives the attempt budget
	}
	h := w.Header()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set(streamMarkerHeader, "m8")
	h.Set("Trailer", streamStatusTrailer)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	torn := false
	//scorislint:ignore ctxloop bounded by the upstream body: resp was issued with a ctx-derived request context, so cancellation aborts Body.Read and the deferred cancel tears the relay down
	for {
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				// The client is gone; the deferred cancel tears the
				// upstream down. Nothing left to say to anyone.
				return true, http.StatusOK, nil, nil, nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			torn = !errors.Is(rerr, io.EOF)
			break
		}
		n, rerr = resp.Body.Read(buf)
	}
	statusTr := resp.Trailer.Get(streamStatusTrailer)
	if torn || statusTr == "" {
		statusTr = "error"
	}
	w.Header().Set(streamStatusTrailer, statusTr)
	if statusTr == streamComplete {
		rt.compares.Add(1)
	} else {
		rt.tornRelays.Add(1)
	}
	if torn {
		// The worker died mid-sentence on the data path — same evidence
		// the buffered path acts on, same consequence.
		rt.noteCompareFailure(wk, fmt.Errorf("stream torn mid-relay: %v", rerr))
	}
	return true, http.StatusOK, nil, nil, nil
}

// relay writes a buffered worker response through to the client.
func (rt *Router) relay(w http.ResponseWriter, status int, header http.Header, body []byte) {
	if ct := header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(status)
	w.Write(body)
}

// noteCompareFailure marks a worker Down immediately: a transport
// failure on the data path is stronger evidence than a missed probe
// (we were talking to it and it died mid-sentence). The health loop
// brings it back when /readyz answers again.
func (rt *Router) noteCompareFailure(wk *worker, err error) {
	wk.noteFail(err, rt.cfg.FailThreshold, true)
}

// backoff sleeps the capped, jittered exponential delay for the given
// attempt number, honoring ctx. Reports false when ctx expired instead.
func (rt *Router) backoff(ctx context.Context, attempt int) bool {
	d := rt.cfg.RetryBase << (attempt - 1)
	if d > rt.cfg.RetryMax || d <= 0 {
		d = rt.cfg.RetryMax
	}
	// Full jitter on the upper half: delay ∈ [d/2, d). Synchronized
	// retry waves against a recovering worker are the failure mode.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// finishCtx answers a compare whose context expired: 504 when the
// router-side deadline ran out, silence when the client itself is gone.
func (rt *Router) finishCtx(w http.ResponseWriter, ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		rt.timedOut.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]any{
			"error":     fmt.Sprintf("compare exceeded the router's deadline (%s)", rt.cfg.CompareTimeout),
			"timed_out": true,
		})
	}
}

// shedCompare is the bottom of the degradation ladder: no replica can
// serve, so the router answers 503 with Retry-After instead of queueing
// toward collapse. Capacity degradation is explicit and fast.
func (rt *Router) shedCompare(w http.ResponseWriter, dbRec *bankRecord, why string) {
	rt.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]any{
		"error":       fmt.Sprintf("no live replica for bank %q (%s); retry", dbRec.Name, why),
		"retry_after": 1,
	})
}

// backfillBanks replays the db (and query) bank registrations onto a
// worker that reported them unknown.
func (rt *Router) backfillBanks(ctx context.Context, wk *worker, dbRec *bankRecord, qRecs []*bankRecord) error {
	if err := rt.registerOn(ctx, wk, dbRec); err != nil {
		return err
	}
	for _, qRec := range qRecs {
		if qRec == dbRec {
			continue
		}
		if err := rt.registerOn(ctx, wk, qRec); err != nil {
			return err
		}
	}
	return nil
}
