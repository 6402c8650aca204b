// The compare run path of the package comment's request lifecycle, in
// order: the engine seam (planCompare), the prologue (resolveCompare),
// admission (serveCompare), the one run function (run) and the buffered
// sink (serveBuffered). The streamed and job sinks are in stream.go and
// jobs.go.
//
// The context run hands the engine is the request's (or the job's) on
// every sink, and all three engines stream natively: a compare stops at
// its next query-sequence group (an oris compare also at its next step-2
// chunk claim) when the client vanishes or the deadline passes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/tabular"
)

// queryRun runs one query bank against an opened db side, delivering
// results under align.Emit's contract: one call per query sequence, in
// bank order, empty groups included.
type queryRun func(ctx context.Context, query *bank.Bank, emit align.Emit) error

// plan is a compare request resolved to its engine: options built and
// validated, nothing acquired yet. Calling it opens the db side once —
// whatever the engine holds across queries — and returns the per-query
// run.
type plan func(db *bank.Bank) queryRun

// planCompare is the engine seam: the one place that knows the engine
// names. A request that can never succeed (unknown engine, an option
// its engine does not implement, options that fail validation) fails
// here, in the prologue.
func (s *Server) planCompare(req *compareRequest) (plan, error) {
	switch engineName(req.Engine) {
	case "oris":
		opt := s.orisOptions(req)
		if err := opt.Validate(); err != nil {
			return nil, err
		}
		return func(db *bank.Bank) queryRun {
			return func(ctx context.Context, query *bank.Bank, emit align.Emit) error {
				// Single-flight against the shared cache: concurrent
				// first touches of one bank share one build, and from a
				// batch's second query on the db side is a hit.
				p1, p2, err := core.Prepare(s.cache, db, query, opt)
				if err != nil {
					return err
				}
				_, err = core.CompareStreamWithIndex(ctx, p1, p2, opt, emit)
				return err
			}
		}, nil
	case "blat":
		opt, err := blatOptions(req)
		if err != nil {
			return nil, err
		}
		return func(db *bank.Bank) queryRun {
			pdb := s.cache.Get(db, opt.IndexOptions())
			return func(ctx context.Context, query *bank.Bank, emit align.Emit) error {
				_, err := blat.CompareStreamWithIndex(ctx, pdb, query, opt, emit)
				return err
			}
		}, nil
	case "blastn":
		opt, err := blastnOptions(req)
		if err != nil {
			return nil, err
		}
		return func(db *bank.Bank) queryRun {
			return func(ctx context.Context, query *bank.Bank, emit align.Emit) error {
				_, err := blastn.CompareStream(ctx, db, query, opt, emit)
				return err
			}
		}, nil
	default:
		return nil, fmt.Errorf("unknown engine %q (use oris, blat, or blastn)", req.Engine)
	}
}

// compareCall is a compare that has passed the prologue: parsed,
// planned, banks resolved.
type compareCall struct {
	req     compareRequest
	names   []string // query bank names, request order
	plan    plan
	db      *bank.Bank
	queries []*bank.Bank // one per name
}

// bodyShape parses one route's request body into the common request
// and its query bank names.
type bodyShape func(body []byte, accept string) (compareRequest, []string, error)

// singleShape is POST /compare's body: one query bank.
func singleShape(body []byte, accept string) (compareRequest, []string, error) {
	req, err := parseCompareRequest(body, accept)
	return req, []string{req.Query}, err
}

// batchRequest is POST /compare/batch's body: a set of query banks
// against one db bank. The embedded compareRequest carries the engine
// and option fields; its Query/Stream fields must stay unset.
type batchRequest struct {
	compareRequest
	Queries []string `json:"queries"`
}

// batchShape parses and structurally validates a batch body.
func batchShape(body []byte, _ string) (compareRequest, []string, error) {
	var req batchRequest
	if err := decodeStrict(body, &req); err != nil {
		return req.compareRequest, nil, fmt.Errorf("bad batch request: %v", err)
	}
	var err error
	switch {
	case req.DB == "":
		err = errors.New("batch request needs a db bank name")
	case len(req.Queries) == 0:
		err = errors.New("batch request needs at least one query bank name")
	case req.Query != "":
		err = errors.New(`batch requests name queries in "queries", not "query"`)
	case req.Stream:
		err = errors.New("batch responses are not streamed (stream single compares instead)")
	}
	return req.compareRequest, req.Queries, err
}

// resolveCompare is the prologue every compare-shaped route shares. It
// answers the 400, 404 or 413 itself and returns nil when the request
// ends there.
func (s *Server) resolveCompare(w http.ResponseWriter, r *http.Request, parse bodyShape) *compareCall {
	body, status, err := httpapi.ReadBody(w, r, httpapi.MaxCompareBody)
	if err != nil {
		httpError(w, status, "reading request body: %v", err)
		return nil
	}
	c := &compareCall{}
	if c.req, c.names, err = parse(body, r.Header.Get("Accept")); err == nil {
		c.plan, err = s.planCompare(&c.req)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	var ok bool
	if c.db, ok = s.lookupBank(c.req.DB); !ok {
		httpError(w, http.StatusNotFound, "unknown db bank %q (register it with POST /banks)", c.req.DB)
		return nil
	}
	c.queries = make([]*bank.Bank, len(c.names))
	for i, name := range c.names {
		if c.queries[i], ok = s.lookupBank(name); !ok {
			httpError(w, http.StatusNotFound, "unknown query bank %q (register it with POST /banks)", name)
			return nil
		}
	}
	return c
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.serveCompare(w, r, singleShape, false)
}

func (s *Server) handleCompareBatch(w http.ResponseWriter, r *http.Request) {
	s.serveCompare(w, r, batchShape, true)
}

// serveCompare serves the interactive routes: prologue, admission, then
// the sink the request picked. One admission slot covers the whole
// call — for a batch that is the point.
func (s *Server) serveCompare(w http.ResponseWriter, r *http.Request, parse bodyShape, batch bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	c := s.resolveCompare(w, r, parse)
	if c == nil {
		return
	}

	// The request context carries both failure signals admission and
	// the compare must observe: client disconnect (the router gave up,
	// or curl was ^C'd) and the server-side RequestTimeout deadline.
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	release, err := s.admit(ctx)
	if err == errAtCapacity {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"server at capacity (%d running, %d queued); retry",
			s.cfg.MaxConcurrent, s.cfg.QueueDepth)
		return
	}
	if err != nil {
		// Gave up while queued: the queue slot is already free.
		s.finishCancelled(w, ctx)
		return
	}
	if c.req.Stream {
		s.serveStreamed(ctx, w, c, release)
		return
	}
	s.serveBuffered(ctx, w, c, release, batch)
}

// groupSink receives query qi's next finished query-sequence group, in
// order, empty groups included.
type groupSink func(qi int, group []align.Alignment) error

// run is the one path from a worker slot to an engine: the caller holds
// the slot, run opens the plan's db side once, runs every query through
// it and feeds sink. It is also the only reader of the two test hooks.
func (s *Server) run(ctx context.Context, c *compareCall, sink groupSink) error {
	if hold := s.testHoldCompare; hold != nil {
		<-hold
	}
	// A request cancelled between admission and here (abandoned in the
	// queue's last moments, or already past its deadline) must not burn
	// a worker slot on a result nobody reads.
	if err := ctx.Err(); err != nil {
		return err
	}
	runQuery := c.plan(c.db)
	for qi, q := range c.queries {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := runQuery(ctx, q, func(_ int, g []align.Alignment) error {
			if gate := s.testStreamGate; gate != nil {
				select {
				case <-gate:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return sink(qi, g)
		})
		if err != nil {
			return err
		}
	}
	s.compares.Add(int64(len(c.queries)))
	return nil
}

// serveBuffered is the buffered sink: collect every query's result,
// then answer once. The m8 body is the concatenation of the per-query
// compares in request order — the exact bytes the scoris CLI writes for
// each. It owns release.
func (s *Server) serveBuffered(ctx context.Context, w http.ResponseWriter, c *compareCall, release func(), batch bool) {
	var m8 []byte
	// The run holds the worker slot in its own goroutine and releases it
	// only when the engine actually returns — at its next group once the
	// context is done — so the slot is never leaked. The handler waits
	// for whichever comes first: the result, or the context giving up on
	// it.
	done := make(chan error, 1)
	go func() {
		defer release()
		done <- s.run(ctx, c, func(qi int, g []align.Alignment) error {
			m8 = tabular.AppendGroup(m8, g, c.db, c.queries[qi])
			return nil
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finishCancelled(w, ctx)
		return
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if batch {
		s.batches.Add(1)
	}
	w.Header().Set("Content-Type", "text/tab-separated-values; charset=utf-8")
	w.Write(m8)
}

// finishCancelled answers a compare that will not produce a result:
// 504 with a distinct machine-readable body when the server-side
// RequestTimeout expired, or a silent close (counted as abandoned) when
// the client itself disconnected — there is nobody left to answer.
func (s *Server) finishCancelled(w http.ResponseWriter, ctx context.Context) {
	if s.countCancelled(ctx) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]any{
			"error":     fmt.Sprintf("compare exceeded the server's request timeout (%s)", s.cfg.RequestTimeout),
			"timed_out": true,
		})
	}
}

// countCancelled books a cancelled compare as timed_out (reporting
// true) or abandoned, by which signal ended its context.
func (s *Server) countCancelled(ctx context.Context) (timedOut bool) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.timedOut.Add(1)
		return true
	}
	s.abandoned.Add(1)
	return false
}
