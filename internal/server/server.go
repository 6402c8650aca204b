// Package server is the long-lived comparison service of the
// reproduction: scorisd. The paper's premise is *intensive* comparison
// — many query banks thrown against long-lived subject banks — and the
// prepared-bank substrate (ixcache single-flight builds, the ixdisk
// mmap store with append-aware reuse) exists precisely so index builds
// amortize across comparisons. This package turns that substrate into a
// server: banks are registered once (POST /v1/banks), comparisons are
// served from prepared indexes (POST /v1/compare) with zero per-request
// builds after first touch, and the cache/store counters that prove the
// amortization are surfaced live (GET /v1/stats). Route names below
// omit the /v1 prefix every route is mounted under.
//
// # Request lifecycle
//
// Every compare-shaped route (POST /compare, buffered or streamed; POST
// /compare/batch; POST /jobs) takes one path (run.go). The prologue
// reads the body, parses the route's body shape, resolves the engine
// into a plan — the only switch over engine names; its options built
// and validated — and resolves the banks from the registry: a request
// that can never succeed is a 400 or 404 here, before it costs any
// capacity. Interactive requests then pass admission control: the
// server runs at most MaxConcurrent comparisons at once and lets at
// most QueueDepth more wait; anything beyond that is rejected
// immediately with 429, so overload degrades into fast, explicit
// backpressure instead of unbounded queueing (jobs block on the worker
// semaphore instead, bounded by MaxJobs). Holding its slot, the one run
// function opens the plan's db side once and runs every query through
// it, Workers clamped to the per-request cap (one request cannot
// monopolize the machine):
//
//   - oris — core.Prepare against the shared ixcache (single-flight:
//     concurrent first touches of one bank share one build; a store
//     tier makes restarts warm) then core.CompareStreamWithIndex,
//     which streams natively and honours the request context;
//   - blat — the cached non-overlapping tile index of the db bank,
//     then blat.CompareStreamWithIndex per query;
//   - blastn — blastn.CompareStream per query: the baseline keeps no
//     index, and its scan arrays come from the engine's own pool.
//
// All three stream one query-sequence group at a time and honour the
// request context between groups.
//
// Each finished query-sequence group goes to the route's sink —
// buffered, streamed (stream.go) or job (jobs.go). Results are written
// as BLAST -m 8 tabular text — byte-identical to the scoris CLI's
// output for the same (bank, options) pair on every sink, which the
// stress tests and the CI service job assert.
//
// Graceful shutdown is the standard http.Server.Shutdown contract: the
// listener stops accepting, in-flight compares run to completion, and
// cmd/scorisd exits 0 only after the drain.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/ixcache"
	"repro/internal/ixdisk"
)

// Config bounds the server's concurrency and wires its storage tiers.
type Config struct {
	// MaxConcurrent is the comparison worker-pool size: at most this
	// many compares run at once. Non-positive means GOMAXPROCS.
	MaxConcurrent int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the MaxConcurrent running ones before new requests are
	// rejected with 429. Zero means the default (2 × MaxConcurrent);
	// negative means no queue at all.
	QueueDepth int
	// RequestWorkers caps the Workers option of any single compare, so
	// one request cannot monopolize every core. Non-positive means
	// max(1, GOMAXPROCS / MaxConcurrent) — full parallelism for a lone
	// request shape, fair shares under a full pool.
	RequestWorkers int
	// CacheEntries bounds the shared index cache (non-positive: the
	// ixcache default).
	CacheEntries int
	// MaxBanks bounds the registry: each registered bank pins its full
	// sequence data in memory, so without a bound query-bank churn is
	// a slow OOM. Registration past the bound is refused; DELETE
	// /banks releases spent banks. Non-positive means DefaultMaxBanks.
	MaxBanks int
	// RequestTimeout, when positive, is the server-side deadline on
	// each compare: a request that has not produced its result within
	// the deadline is answered 504 (with "timed_out" set in the JSON
	// error body, so clients and the fleet router can tell a server
	// deadline from other failures). The deadline reaches the engine:
	// a compare stops at its next query-sequence group (an oris compare
	// also at its next step-2 chunk claim) and only then releases its
	// worker slot — the slot is never leaked, but a server sized for
	// pathological inputs should pair this with MaxConcurrent headroom.
	// Zero (the default) means no server-side deadline.
	RequestTimeout time.Duration
	// StreamBuffer bounds the per-request group buffer of a streamed
	// compare: the engine may run at most this many finished query
	// sequences ahead of what the client has consumed before its next
	// emit blocks — the backpressure that keeps a slow reader from
	// forcing the server to buffer the whole result after all.
	// Non-positive means DefaultStreamBuffer.
	StreamBuffer int
	// MaxJobs bounds the async job registry: queued, running, and
	// finished-but-unretrieved jobs all count (a finished job holds its
	// result bytes until DELETE). POST /jobs past the bound is refused
	// with 429. Non-positive means DefaultMaxJobs.
	MaxJobs int
	// Store, when non-nil, is attached as the cache's persistent tier:
	// index builds survive restarts, and banks registered with "db"
	// are MarkDB'd into it.
	Store *ixdisk.DirStore
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 2 * c.MaxConcurrent
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.RequestWorkers <= 0 {
		c.RequestWorkers = runtime.GOMAXPROCS(0) / c.MaxConcurrent
		if c.RequestWorkers < 1 {
			c.RequestWorkers = 1
		}
	}
	if c.MaxBanks <= 0 {
		c.MaxBanks = DefaultMaxBanks
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = DefaultStreamBuffer
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = DefaultMaxJobs
	}
	return c
}

// DefaultMaxBanks is the registry bound when Config.MaxBanks is unset.
const DefaultMaxBanks = 1024

// DefaultStreamBuffer is the per-request streamed-group buffer when
// Config.StreamBuffer is unset: small enough that a stalled client
// stalls the engine within a few query sequences, large enough to ride
// over flush latency.
const DefaultStreamBuffer = 4

// DefaultMaxJobs is the async job registry bound when Config.MaxJobs is
// unset.
const DefaultMaxJobs = 32

// Server is the comparison service. Create with New, mount Handler on
// an http.Server. All methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *ixcache.Cache
	store *ixdisk.DirStore

	mu    sync.RWMutex
	banks map[string]*bankEntry // guardedby: mu

	// sem has MaxConcurrent slots: holding one is the right to run a
	// compare. admitted counts running + waiting requests; admission
	// rejects when it would exceed MaxConcurrent + QueueDepth.
	sem      chan struct{}
	admitted atomic.Int64

	requests   atomic.Int64 // HTTP requests seen (all endpoints)
	compares   atomic.Int64 // compares completed successfully
	batches    atomic.Int64 // batch requests completed successfully
	admissions atomic.Int64 // cumulative successful admissions (slots granted)
	rejected   atomic.Int64 // compares refused by admission control
	abandoned  atomic.Int64 // compares whose client vanished before the result
	timedOut   atomic.Int64 // compares answered 504 by RequestTimeout

	// Async job registry (POST /jobs); see jobs.go.
	jobMu         sync.Mutex
	jobs          map[string]*job // guardedby: jobMu
	jobSeq        atomic.Int64
	jobsCreated   atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64

	// draining flips /readyz to 503 the moment graceful shutdown
	// begins, so a fleet router stops routing here before the listener
	// closes (in-flight and already-accepted compares still complete).
	draining atomic.Bool

	// testHoldCompare, when non-nil, is received by every compare once
	// it holds its worker slot, before the engine starts — the hook that
	// lets tests park a compare mid-flight deterministically (admission
	// overflow and graceful-drain tests). Set before the server handles
	// traffic.
	testHoldCompare chan struct{}

	// testStreamGate, when non-nil, is received before every group any
	// sink is handed (racing the compare's context) — the hook that
	// lets tests pace a compare group by group and park the engine
	// mid-run deterministically. Set before the server handles traffic.
	testStreamGate chan struct{}
}

type bankEntry struct {
	bank *bank.Bank
	crc  uint64 // content identity, for idempotent re-registration
	db   bool
}

// New returns a ready server. The cache (and store tier, if
// configured) is shared by every request for the server's lifetime —
// that sharing is what makes the service "prepared": each
// (bank, options) index is built at most once per process, and with a
// store at most once ever.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := ixcache.New(cfg.CacheEntries)
	if cfg.Store != nil {
		cache.SetStore(cfg.Store)
	}
	return &Server{
		cfg:   cfg,
		cache: cache,
		store: cfg.Store,
		banks: make(map[string]*bankEntry),
		jobs:  make(map[string]*job),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
}

// Cache exposes the shared index cache (tests assert its counters).
func (s *Server) Cache() *ixcache.Cache { return s.cache }

// Config returns the effective configuration, defaults filled in.
func (s *Server) Config() Config { return s.cfg }

// RegisterBank adds b to the registry under name. Registering the same
// content under the same name again is idempotent; different content
// under a taken name is refused, and so is growing the registry past
// MaxBanks — each entry pins the bank's full sequence data in memory,
// so an unbounded registry is a slow OOM under query-bank churn
// (deregister spent query banks with DELETE /banks, or raise the cap).
// db marks the bank as a long-lived database bank: with a store
// configured it is MarkDB'd so DBOnly save policies persist its index.
func (s *Server) RegisterBank(name string, b *bank.Bank, db bool) error {
	if name == "" {
		return fmt.Errorf("server: bank name must be non-empty")
	}
	crc := b.Checksum()
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.banks[name]; ok {
		if prev.crc != crc || len(prev.bank.Data) != len(b.Data) {
			return fmt.Errorf("server: bank %q already registered with different content", name)
		}
		// Idempotent re-registration; allow a later call to upgrade the
		// bank to db status (never to silently downgrade it).
		if db && !prev.db {
			prev.db = true
			if s.store != nil {
				s.store.MarkDB(prev.bank)
			}
		}
		return nil
	}
	if len(s.banks) >= s.cfg.MaxBanks {
		return fmt.Errorf("server: bank registry full (%d banks); DELETE spent banks or raise MaxBanks", len(s.banks))
	}
	s.banks[name] = &bankEntry{bank: b, crc: crc, db: db}
	if db && s.store != nil {
		s.store.MarkDB(b)
	}
	return nil
}

// DeregisterBank removes name from the registry, releasing the
// server's references to the bank now: its cached indexes (an index still building finishes for its waiters and
// leaves through the cache's LRU). Compares already in flight hold
// their own bank and index pointers and are unaffected — both are
// immutable. Removing an unknown name reports false.
func (s *Server) DeregisterBank(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.banks[name]
	if !ok {
		return false
	}
	delete(s.banks, name)
	s.cache.Drop(e.bank)
	return true
}

// lookupBank resolves a registered bank by name.
func (s *Server) lookupBank(name string) (*bank.Bank, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.banks[name]
	if !ok {
		return nil, false
	}
	return e.bank, true
}

// errAtCapacity reports an admission refusal (429 to the client).
var errAtCapacity = errors.New("server at capacity")

// admit implements admission control: a request either gets a worker
// slot (possibly after waiting in the bounded queue) and a release
// function, or fails — with errAtCapacity when the queue is full
// (refusal is O(1): overload answers immediately instead of stacking
// requests), or with ctx.Err() when the request was abandoned or timed
// out while queued. A queued request that stops waiting frees its queue
// slot immediately, so an abandoned client never holds capacity it will
// not use.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if n := s.admitted.Add(1); n > int64(s.cfg.MaxConcurrent+s.cfg.QueueDepth) {
		s.admitted.Add(-1)
		s.rejected.Add(1)
		return nil, errAtCapacity
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.admitted.Add(-1)
		return nil, ctx.Err()
	}
	s.admissions.Add(1)
	return func() {
		<-s.sem
		s.admitted.Add(-1)
	}, nil
}

// SetDraining flips the /readyz readiness signal; scorisd sets it the
// moment a shutdown signal arrives, before http.Server.Shutdown closes
// the listener, so routers drain traffic away first.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the server has begun graceful shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP mux, mounted under /v1/ — the only
// surface; any other path is 404 (see internal/httpapi).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/banks", s.countRequests(s.handleBanks))
	mux.HandleFunc("/compare", s.countRequests(s.handleCompare))
	mux.HandleFunc("/compare/batch", s.countRequests(s.handleCompareBatch))
	mux.HandleFunc("/jobs", s.countRequests(s.handleJobs))
	mux.HandleFunc("/jobs/", s.countRequests(s.handleJob))
	mux.HandleFunc("/stats", s.countRequests(s.handleStats))
	mux.HandleFunc("/healthz", s.countRequests(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/readyz", s.countRequests(s.handleReadyz))
	return httpapi.Versioned(mux)
}

// handleReadyz is the readiness probe: 200 while the server can take
// new compare traffic, 503 the moment it cannot — because graceful
// drain has begun, or because the configured store directory is gone
// (the process still serves from memory, but a router should prefer a
// replica whose cold tier works). Liveness stays /healthz: a draining
// server is alive but not ready.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if s.store != nil {
		if _, err := os.Stat(s.store.Dir()); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": fmt.Sprintf("index store: %v", err)})
			return
		}
	}
	json.NewEncoder(w).Encode(map[string]any{"ready": true})
}

func (s *Server) countRequests(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		h(w, r)
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// BankRequest is a POST /banks registration: a JSON body naming a FASTA
// file readable by the server process, or — for a FASTA-text body —
// the name and db flag taken from the ?name= and ?db= parameters.
type BankRequest struct {
	// Name the bank is registered under (compare requests refer to it).
	Name string `json:"name"`
	// Path of a FASTA file on the server's filesystem; empty for a
	// FASTA-text body.
	Path string `json:"path"`
	// DB marks the long-lived database side of the workload.
	DB bool `json:"db"`
}

// bankInfo describes one registered bank.
type bankInfo struct {
	Name      string  `json:"name"`
	Sequences int     `json:"sequences"`
	Bases     int     `json:"bases"`
	Mbp       float64 `json:"mbp"`
	DB        bool    `json:"db"`
}

func (s *Server) handleBanks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		infos := make([]bankInfo, 0, len(s.banks))
		for name, e := range s.banks {
			infos = append(infos, bankInfo{
				Name: name, Sequences: e.bank.NumSeqs(),
				Bases: e.bank.TotalBases(), Mbp: e.bank.Mbp(), DB: e.db,
			})
		}
		s.mu.RUnlock()
		// The bank table is a map: sort so the listing is
		// byte-deterministic.
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(infos)
	case http.MethodPost:
		body, status, err := httpapi.ReadBody(w, r, bank.MaxData)
		if err != nil {
			httpError(w, status, "reading bank request: %v", err)
			return
		}
		req, b, err := LoadBankBody(body, r.URL.Query())
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.RegisterBank(req.Name, b, req.DB); err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		// Re-read the entry: an idempotent re-registration answers with
		// the bank and db status that actually serve (RegisterBank may
		// have kept the original pointer and never downgrades db).
		info, _ := s.bankInfoFor(req.Name)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(info)
	case http.MethodDelete:
		// DELETE /banks?name=x releases a spent bank (typically a
		// one-shot query bank) so the registry stays bounded under
		// churn. In-flight compares are unaffected; see DeregisterBank.
		name := r.URL.Query().Get("name")
		if name == "" {
			httpError(w, http.StatusBadRequest, "DELETE needs a ?name= parameter")
			return
		}
		if !s.DeregisterBank(name) {
			httpError(w, http.StatusNotFound, "unknown bank %q", name)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"deleted": name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET, POST, or DELETE")
	}
}

// LoadBankBody parses a POST /banks body and loads the bank it
// registers: a FASTA-text body is the bank, named by ?name= (required)
// and marked db by ?db=1; a JSON spec names a file to load, defaulting
// its name to the path. A FASTA body returns a request with an empty
// Path. scorisd and the fleet router both register through it, so the
// two daemons accept and refuse the same bodies.
func LoadBankBody(body []byte, query url.Values) (BankRequest, *bank.Bank, error) {
	name := query.Get("name")
	req, b, err := parseBankBody(body, name)
	if err != nil {
		return req, nil, err
	}
	if b != nil {
		req.Name = name
		req.DB = query.Get("db") != "" && query.Get("db") != "0"
		if req.Name == "" {
			return req, nil, errors.New("FASTA-body registration needs a ?name= parameter")
		}
		return req, b, nil
	}
	if req.Name == "" {
		req.Name = req.Path
	}
	b, err = bank.FromFile(req.Name, req.Path)
	if err != nil {
		return req, nil, fmt.Errorf("loading bank: %v", err)
	}
	return req, b, nil
}

// parseBankBody dispatches a POST /banks body: it is either a JSON
// BankRequest or raw FASTA text, told apart by the first non-blank byte
// ('>' opens a FASTA header, '{' a JSON object) rather than the
// Content-Type header, so plain `curl -d '{...}'` works without header
// ceremony. A FASTA body returns the bank it parses to, named name (it
// holds at least one record); a JSON body returns no bank and the
// request with Path set. Shared with FuzzParseBankBody.
//
//scorislint:validator
func parseBankBody(body []byte, name string) (req BankRequest, b *bank.Bank, err error) {
	if !bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte(">")) {
		if err := decodeStrict(body, &req); err != nil {
			return req, nil, fmt.Errorf("bad bank request: %v", err)
		}
		if req.Path == "" {
			return req, nil, errors.New("bank request needs a path (or POST FASTA text with a ?name= parameter)")
		}
		return req, nil, nil
	}
	b, err = bank.Parse(name, body)
	if err != nil {
		return req, nil, fmt.Errorf("parsing FASTA body: %v", err)
	}
	return req, b, nil
}

// decodeStrict unmarshals one JSON request body into v, refusing
// unknown fields and trailing data: a misspelt option ("both_strand")
// is a 400, never a 200 that silently ran the default.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// bankInfoFor snapshots the registry entry for name.
func (s *Server) bankInfoFor(name string) (bankInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.banks[name]
	if !ok {
		return bankInfo{}, false
	}
	return bankInfo{
		Name: name, Sequences: e.bank.NumSeqs(),
		Bases: e.bank.TotalBases(), Mbp: e.bank.Mbp(), DB: e.db,
	}, true
}

// compareRequest is one comparison. Optional fields are pointers so
// "absent" is distinguishable from a zero value; absent fields take the
// engine's defaults — the same defaults the scoris CLI flags carry, so
// a default-shaped request is byte-identical to a default CLI run.
type compareRequest struct {
	// DB and Query name registered banks: DB is the subject/database
	// side (the paper's bank 1), Query the query side.
	DB    string `json:"db"`
	Query string `json:"query"`
	// Engine: "oris" (default), "blat", or "blastn".
	Engine string `json:"engine"`
	// Stream requests chunked m8 delivery: each query sequence's
	// alignments are written (and flushed) as they finish, instead of
	// after the whole compare. Equivalent to sending
	// "Accept: text/x-m8-stream".
	Stream bool `json:"stream"`

	W           *int     `json:"w"`
	MaxEValue   *float64 `json:"max_evalue"`
	BothStrands *bool    `json:"both_strands"`
	Dust        *bool    `json:"dust"`
	Workers     *int     `json:"workers"`
	Asymmetric  *bool    `json:"asymmetric"`
	Match       *int     `json:"match"`
	Mismatch    *int     `json:"mismatch"`
	GapOpen     *int     `json:"gap_open"`
	GapExtend   *int     `json:"gap_extend"`
}

// clampWorkers applies the per-request parallelism cap: unset (or
// "all cores", the CLI's 0) becomes the server's fair share, explicit
// requests are honored up to that cap.
func (s *Server) clampWorkers(req *int) int {
	if req == nil || *req <= 0 || *req > s.cfg.RequestWorkers {
		return s.cfg.RequestWorkers
	}
	return *req
}

// parseCompareRequest parses a POST /compare JSON body and applies the
// structural validation that needs no registry: known fields only, both
// bank names present. Shared with FuzzParseCompareRequest.
//
//scorislint:validator
func parseCompareRequest(body []byte, accept string) (compareRequest, error) {
	var req compareRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, fmt.Errorf("bad compare request: %v", err)
	}
	if strings.Contains(accept, httpapi.StreamAccept) {
		req.Stream = true
	}
	if req.DB == "" || req.Query == "" {
		return req, errors.New("compare request needs db and query bank names")
	}
	return req, nil
}

func engineName(e string) string {
	if e == "" {
		return "oris"
	}
	return e
}

// orisOptions builds the core.Options a request asks for, with the
// server's worker clamp applied.
func (s *Server) orisOptions(req *compareRequest) core.Options {
	opt := core.DefaultOptions()
	applyCommon(&opt.Params, req)
	if req.BothStrands != nil && *req.BothStrands {
		opt.Strand = core.BothStrands
	}
	if req.Asymmetric != nil && *req.Asymmetric {
		opt.W = 10
		opt.Asymmetric = true
	}
	opt.Workers = s.clampWorkers(req.Workers)
	return opt
}

// blatOptions validates and builds the blat.Options a request asks for.
// Result-changing options an engine does not implement are refused, not
// silently dropped — a 200 carrying half the strands the client asked
// for would be a correctness bug in HTTP form. (workers stays accepted
// everywhere: parallelism is the server's scheduling decision, never a
// result change.)
func blatOptions(req *compareRequest) (blat.Options, error) {
	var opt blat.Options
	if req.BothStrands != nil && *req.BothStrands {
		return opt, fmt.Errorf("the blat engine searches a single strand only (drop both_strands or use engine oris/blastn)")
	}
	if req.Asymmetric != nil && *req.Asymmetric {
		return opt, fmt.Errorf("asymmetric half-word indexing is an oris-engine mode")
	}
	opt = blat.DefaultOptions()
	applyCommon(&opt.Params, req)
	return opt, opt.Validate()
}

// blastnOptions validates and builds the blastn.Options a request asks
// for.
func blastnOptions(req *compareRequest) (blastn.Options, error) {
	var opt blastn.Options
	if req.Asymmetric != nil && *req.Asymmetric {
		return opt, fmt.Errorf("asymmetric half-word indexing is an oris-engine mode")
	}
	opt = blastn.DefaultOptions()
	applyCommon(&opt.Params, req)
	if req.BothStrands != nil {
		opt.BothStrands = *req.BothStrands
	}
	return opt, opt.Validate()
}

// applyCommon copies the request's fields of the parameters all three
// engines share.
func applyCommon(p *align.Params, req *compareRequest) {
	if req.W != nil {
		p.W = *req.W
	}
	if req.MaxEValue != nil {
		p.MaxEValue = *req.MaxEValue
	}
	if req.Dust != nil {
		p.Dust = *req.Dust
	}
	if req.Match != nil {
		p.Scoring.Match = *req.Match
	}
	if req.Mismatch != nil {
		p.Scoring.Mismatch = *req.Mismatch
	}
	if req.GapOpen != nil {
		p.Scoring.GapOpen = *req.GapOpen
	}
	if req.GapExtend != nil {
		p.Scoring.GapExtend = *req.GapExtend
	}
}

// Stats is the /stats payload: the counters that prove (or disprove)
// the amortization story live, per tier.
type Stats struct {
	Banks int              `json:"banks"`
	Cache ixcache.Counters `json:"cache"`
	// Store is nil when no persistent tier is configured.
	Store  *StoreStats `json:"store,omitempty"`
	Server ServerStats `json:"server"`
	Jobs   JobStats    `json:"jobs"`
}

// StoreStats are the DirStore's counters: what it extended, the blocks
// it read and appended, and what became of each write-back. Each is
// counted once, here; the cache's DiskHits and DiskErrors (stored
// indexes it could not use) live under Cache.
type StoreStats struct {
	Extends         int64  `json:"suffix_extensions"`
	BlockLoads      int64  `json:"block_loads"`
	BlockAppends    int64  `json:"block_appends"`
	SavesDeclined   int64  `json:"saves_declined"`
	WriteBackErrors int64  `json:"write_back_errors"`
	Dir             string `json:"dir"`
}

// ServerStats count the HTTP side.
type ServerStats struct {
	Requests int64 `json:"requests"`
	Compares int64 `json:"compares"`
	Batches  int64 `json:"batches"`
	// Admissions counts worker slots ever granted — the cumulative
	// companion to the instantaneous Admitted. A batch of N queries
	// moves it by exactly 1; that delta is what proves the batch path's
	// single-admission contract.
	Admissions     int64 `json:"admissions"`
	Rejected       int64 `json:"rejected"`
	Abandoned      int64 `json:"abandoned"`
	TimedOut       int64 `json:"timed_out"`
	InFlight       int   `json:"in_flight"`
	Admitted       int64 `json:"admitted"`
	MaxConcurrent  int   `json:"max_concurrent"`
	QueueDepth     int   `json:"queue_depth"`
	RequestWorkers int   `json:"request_workers"`
	Draining       bool  `json:"draining"`
}

// JobStats count the async job subsystem.
type JobStats struct {
	Created   int64 `json:"created"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	// Held counts job records currently retained (any state); the
	// MaxJobs bound applies to this number.
	Held int `json:"held"`
}

// StatsSnapshot assembles the current Stats (also used by tests
// directly, without HTTP).
func (s *Server) StatsSnapshot() Stats {
	s.mu.RLock()
	nBanks := len(s.banks)
	s.mu.RUnlock()
	st := Stats{
		Banks: nBanks,
		Cache: s.cache.Counters(),
		Server: ServerStats{
			Requests:       s.requests.Load(),
			Compares:       s.compares.Load(),
			Batches:        s.batches.Load(),
			Admissions:     s.admissions.Load(),
			Rejected:       s.rejected.Load(),
			Abandoned:      s.abandoned.Load(),
			TimedOut:       s.timedOut.Load(),
			InFlight:       len(s.sem),
			Admitted:       s.admitted.Load(),
			MaxConcurrent:  s.cfg.MaxConcurrent,
			QueueDepth:     s.cfg.QueueDepth,
			RequestWorkers: s.cfg.RequestWorkers,
			Draining:       s.draining.Load(),
		},
		Jobs: s.jobStats(),
	}
	if s.store != nil {
		st.Store = &StoreStats{
			Extends:         s.store.Extends(),
			BlockLoads:      s.store.BlockLoads(),
			BlockAppends:    s.store.BlockAppends(),
			SavesDeclined:   s.store.SavesDeclined(),
			WriteBackErrors: s.store.WriteBackErrors(),
			Dir:             s.store.Dir(),
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.StatsSnapshot())
}
