// Package fleet is the horizontal-scaling layer of the reproduction: a
// coordinator (cmd/scoris-router) that fronts a pool of scorisd workers
// so comparison capacity grows by adding processes, not cores — the
// "millions of users" direction of the ROADMAP, and the
// shard-by-index-identity view the indexed-seed-search literature takes
// (the database index is the unit that replicates).
//
// # Bank affinity
//
// Compares route by bank identity: each registered bank's content key
// (the same CRC-64 + length + sequence-count triple that names its
// .orix file) is rendezvous-hashed against the worker set, and the
// top-Replication workers own the bank. POST /banks fans registration
// to the owners, POST /compare tries them in rendezvous order — so each
// prepared index stays hot on the workers that own it, and adding a
// worker remaps only the banks that worker wins (no global reshuffle,
// the rendezvous property).
//
// # Robustness
//
// The rest of the package is the machinery that keeps the fleet
// serving while its workers misbehave:
//
//   - a health loop probes every worker's /readyz and runs each through
//     an up/draining/down state machine (draining workers stop taking
//     new routes before their listener closes; dead ones return only
//     after a probe succeeds again);
//   - compares are idempotent, so any failed attempt — connection
//     refused, worker death mid-response, truncated body, per-attempt
//     deadline, 429, 5xx — retries on the next live replica in the
//     ring, with capped jittered exponential backoff between attempts;
//   - a worker that wins a bank it never saw (failover past the owner
//     list) is backfilled: the router replays the bank's registration,
//     and with a shared -index-dir store the worker warms the index
//     from disk instead of rebuilding;
//   - when every replica is exhausted or no worker is up, the router
//     sheds with an honest 503 + Retry-After immediately — degraded
//     capacity answers fast, it does not queue-collapse or hang.
//
// Fault injection for all of the above lives in the chaos subpackage;
// GET /stats aggregates the per-worker amortization ledgers fleet-wide.
package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// Config tunes the router. The zero value is serviceable: every field
// has a default chosen for a small local fleet.
type Config struct {
	// Replication is how many workers own (and get registrations for)
	// each bank. Non-positive means DefaultReplication; ownership never
	// exceeds the worker count.
	Replication int
	// ProbeInterval is the health-loop period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each /readyz probe and each per-worker /stats
	// fetch (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures turn a
	// worker Down (default 3). Transport failures on the compare path
	// down a worker immediately — the probe loop brings it back.
	FailThreshold int
	// CompareTimeout is the end-to-end deadline the router grants one
	// client compare across all its attempts; expiry answers 504. Zero
	// means no router-side deadline (the client's own applies).
	CompareTimeout time.Duration
	// AttemptTimeout bounds a single forwarded attempt, so one hung
	// worker cannot consume the whole CompareTimeout. Zero derives
	// CompareTimeout/MaxAttempts when CompareTimeout is set, else
	// leaves attempts unbounded.
	AttemptTimeout time.Duration
	// MaxAttempts is the total number of forwarded attempts per compare
	// before the router sheds (default 6).
	MaxAttempts int
	// RetryBase and RetryMax shape the capped jittered exponential
	// backoff between attempts (defaults 50ms and 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Client performs all worker-bound HTTP. Defaults to a dedicated
	// client with no global timeout (contexts bound each call).
	Client *http.Client
}

// DefaultReplication is how many workers own each bank by default.
const DefaultReplication = 2

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.AttemptTimeout <= 0 && c.CompareTimeout > 0 {
		c.AttemptTimeout = c.CompareTimeout / time.Duration(c.MaxAttempts)
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// State is a worker's position in the health state machine.
type State int32

const (
	// StateUp workers take new routes.
	StateUp State = iota
	// StateDraining workers answered /readyz with 503: alive, finishing
	// their in-flight work, not taking new routes. They return to Up
	// when readiness returns (a drain that was a store hiccup) and fall
	// to Down when probes stop answering (the listener closed).
	StateDraining
	// StateDown workers take no routes until a probe succeeds again.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	}
	return "unknown"
}

// worker is one scorisd process as the router sees it.
type worker struct {
	Name string
	URL  string

	mu      sync.Mutex
	state   State  // guardedby: mu
	fails   int    // guardedby: mu ; consecutive probe/compare failures
	lastErr string // guardedby: mu
}

// api is the worker's URL for an API route: every router→worker hop
// (compare, bank backfill, readiness probe, stats scrape) goes through
// the worker's one mounted surface.
func (w *worker) api(path string) string { return w.URL + httpapi.Version + path }

func (w *worker) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

func (w *worker) snapshot() (State, int, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state, w.fails, w.lastErr
}

func (w *worker) setUp() {
	w.mu.Lock()
	w.state, w.fails, w.lastErr = StateUp, 0, ""
	w.mu.Unlock()
}

func (w *worker) setDraining(reason string) {
	w.mu.Lock()
	w.state, w.fails, w.lastErr = StateDraining, 0, reason
	w.mu.Unlock()
}

// noteFail records one failed probe; threshold consecutive failures
// turn the worker Down. immediate (compare-path transport failures,
// i.e. observed worker death) skips the threshold: the next replica
// must not wait three probe periods to be tried.
func (w *worker) noteFail(err error, threshold int, immediate bool) {
	w.mu.Lock()
	w.fails++
	w.lastErr = err.Error()
	if immediate || w.fails >= threshold {
		w.state = StateDown
	}
	w.mu.Unlock()
}

// bankRecord is the router's view of one registered bank: enough
// identity to route by content, and a replayable registration spec so
// failover targets can be backfilled on demand.
type bankRecord struct {
	Name  string
	Key   string // content key: CRC-64/ECMA + data length + seq count
	DB    bool
	Seqs  int
	Bases int

	specJSON []byte // JSON {"name","path","db"} registration to replay
	fasta    []byte // raw FASTA body registration to replay (exclusive)
}

// Router is the fleet coordinator. Create with New, register workers
// (AddWorker or POST /workers), Start the health loop, and mount
// Handler on an http.Server. All methods are safe for concurrent use.
type Router struct {
	cfg    Config
	client *http.Client

	mu      sync.RWMutex
	workers map[string]*worker     // guardedby: mu
	order   []string               // guardedby: mu ; registration order, for stable listings
	banks   map[string]*bankRecord // guardedby: mu

	requests   atomic.Int64 // HTTP requests seen (all endpoints)
	compares   atomic.Int64 // compares answered 2xx
	retries    atomic.Int64 // forwarded attempts beyond each first
	failovers  atomic.Int64 // attempts abandoned for transport/5xx death
	backfills  atomic.Int64 // banks replayed onto failover targets
	shed       atomic.Int64 // compares answered 503 (replicas exhausted)
	timedOut   atomic.Int64 // compares answered 504 (CompareTimeout)
	tornRelays atomic.Int64 // committed stream relays sealed non-complete
	probes     atomic.Int64
	probeFails atomic.Int64

	stopProbes chan struct{}
	probesDone chan struct{}
	started    atomic.Bool
	startOnce  sync.Once
	stopOnce   sync.Once
}

// New returns a router with no workers; Start launches its health loop.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	return &Router{
		cfg:        cfg,
		client:     cfg.Client,
		workers:    make(map[string]*worker),
		banks:      make(map[string]*bankRecord),
		stopProbes: make(chan struct{}),
		probesDone: make(chan struct{}),
	}
}

// Config returns the effective configuration, defaults filled in.
func (rt *Router) Config() Config { return rt.cfg }

// AddWorker registers (or re-registers) a worker under name. A worker
// that comes back on a new address re-registers with the same name; its
// state resets to Up and the next probe settles the truth. The URL must
// be absolute (http://host:port).
func (rt *Router) AddWorker(name, rawURL string) error {
	if name == "" {
		return fmt.Errorf("fleet: worker name must be non-empty")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("fleet: worker %q needs an absolute URL (http://host:port), got %q", name, rawURL)
	}
	base := u.Scheme + "://" + u.Host
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if prev, ok := rt.workers[name]; ok {
		prev.mu.Lock()
		prev.URL = base
		prev.state, prev.fails, prev.lastErr = StateUp, 0, ""
		prev.mu.Unlock()
		return nil
	}
	rt.workers[name] = &worker{Name: name, URL: base, state: StateUp}
	rt.order = append(rt.order, name)
	return nil
}

// workerList snapshots the worker set in registration order.
func (rt *Router) workerList() []*worker {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ws := make([]*worker, 0, len(rt.order))
	for _, name := range rt.order {
		ws = append(ws, rt.workers[name])
	}
	return ws
}

// rank orders every worker by rendezvous score for key, highest first:
// position 0..Replication-1 are the bank's owners, and the tail is the
// failover order. The ranking is over the full worker set regardless of
// health — health is a routing-time filter, not an ownership change, so
// a worker blip never migrates every bank.
func (rt *Router) rank(key string) []*worker {
	ws := rt.workerList()
	type scored struct {
		w     *worker
		score uint64
	}
	ss := make([]scored, len(ws))
	for i, w := range ws {
		ss[i] = scored{w, rendezvousScore(key, w.Name)}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].w.Name < ss[j].w.Name
	})
	out := make([]*worker, len(ss))
	for i, s := range ss {
		out[i] = s.w
	}
	return out
}

// rendezvousScore is FNV-1a over (worker, bank-key): each worker hashes
// every bank independently, so removing one worker reassigns only the
// banks it owned.
func rendezvousScore(key, workerName string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workerName))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// owners returns the top-n live-or-not workers for key.
func (rt *Router) owners(key string) []*worker {
	ranked := rt.rank(key)
	n := rt.cfg.Replication
	if n > len(ranked) {
		n = len(ranked)
	}
	return ranked[:n]
}

// Handler returns the router's HTTP mux. Like the worker surface, it is
// mounted under /v1/ only (see internal/httpapi).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compare", rt.count(rt.handleCompare))
	mux.HandleFunc("/compare/batch", rt.count(rt.handleCompareBatch))
	mux.HandleFunc("/banks", rt.count(rt.handleBanks))
	mux.HandleFunc("/workers", rt.count(rt.handleWorkers))
	mux.HandleFunc("/stats", rt.count(rt.handleStats))
	mux.HandleFunc("/healthz", rt.count(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/readyz", rt.count(rt.handleReadyz))
	return httpapi.Versioned(mux)
}

func (rt *Router) count(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.requests.Add(1)
		h(w, r)
	}
}

// handleReadyz: the router is ready when at least one worker is up —
// otherwise every compare would shed, and a load balancer above a
// multi-router deployment should know.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, wk := range rt.workerList() {
		if wk.State() == StateUp {
			up++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": "no workers up"})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"ready": true, "workers_up": up})
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// workerInfo is one row of GET /workers.
type workerInfo struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
}

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		infos := make([]workerInfo, 0)
		for _, wk := range rt.workerList() {
			st, fails, lastErr := wk.snapshot()
			infos = append(infos, workerInfo{
				Name: wk.Name, URL: wk.URL, State: st.String(),
				Failures: fails, LastErr: lastErr,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(infos)
	case http.MethodPost:
		var req struct {
			Name string `json:"name"`
			URL  string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad worker registration: %v", err)
			return
		}
		if req.Name == "" {
			req.Name = req.URL
		}
		if err := rt.AddWorker(req.Name, req.URL); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Settle the new worker's true state promptly (it registered
		// optimistically Up).
		// background: one-shot probe bounded by ProbeTimeout; the
		// periodic health loop owns steady-state probing.
		go rt.probeWorkerByName(req.Name)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"registered": req.Name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}
