// Package chaos is the fault-injection harness of the fleet layer: a
// transparent TCP proxy wrapped around one worker's HTTP handler that
// can be switched, per worker and at any moment, into the failure modes
// a real fleet sees — death (connections refused), hangs (accepted,
// never answered), pathological slowness, truncated responses, and
// load-shedding 429s. The fleet tests and the chaos criterion of the
// router ("kill 1 of 3 workers mid-wave, complete the wave with zero
// client-visible failures") drive workers exclusively through these
// proxies, so every degradation path is exercised against real sockets,
// not mocks.
//
// Modes that fault the data plane only (Slow, Corrupt, Reject) apply to
// POST /v1/compare and leave the health endpoints honest, so a test can
// target the router's retry machinery without the health loop pulling
// the worker out first. Kill and Hang are physical: they take the
// probes down with the worker, which is exactly what the health state
// machine exists to notice.
package chaos

import (
	"bytes"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// Mode selects the proxy's current behavior.
type Mode int32

const (
	// Healthy passes every request through untouched.
	Healthy Mode = iota
	// Hang accepts requests (all paths, probes included) and never
	// answers until the mode changes or the client gives up — the
	// stuck-worker shape a deadline exists for.
	Hang
	// Slow delays each /compare response by the configured duration.
	Slow
	// Corrupt serves /compare with the full Content-Length declared
	// but the body truncated halfway, then severs the connection — the
	// torn-response shape a router must detect and retry elsewhere.
	Corrupt
	// Reject answers every /compare with 429 + Retry-After, the
	// admission-control backpressure shape.
	Reject
	// Torn serves /compare's headers and half its body — flushed, so
	// the bytes reach the wire — then severs the connection without the
	// stream's sealing trailer ever arriving. Where Corrupt promises a
	// Content-Length it cannot keep (the buffered-response tear), Torn
	// is the chunked-stream tear: a relay that has already committed to
	// this worker must seal the client's stream with a non-"complete"
	// trailer, never pass the truncation off as a full result.
	Torn
)

func (m Mode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case Hang:
		return "hang"
	case Slow:
		return "slow"
	case Corrupt:
		return "corrupt"
	case Reject:
		return "reject"
	case Torn:
		return "torn"
	}
	return "unknown"
}

// Proxy fronts one worker handler on a real localhost listener.
type Proxy struct {
	inner http.Handler
	addr  string

	mode  atomic.Int32
	delay atomic.Int64 // Slow's per-response delay, ns

	mu      sync.Mutex
	srv     *http.Server
	release chan struct{} // closed on every Set: unparks Hang'd requests
}

// New starts a proxy for inner on an ephemeral localhost port.
func New(inner http.Handler) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		inner:   inner,
		addr:    ln.Addr().String(),
		release: make(chan struct{}),
	}
	p.serveOn(ln)
	return p, nil
}

func (p *Proxy) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: http.HandlerFunc(p.serve)}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	// background: accept loop; terminated by Kill/Close, which
	// srv.Close()s this server and its listener.
	go srv.Serve(ln)
}

// URL is the base URL a router registers this worker under.
func (p *Proxy) URL() string { return "http://" + p.addr }

// Addr is the proxy's host:port (stable across Kill/Restart).
func (p *Proxy) Addr() string { return p.addr }

// Set switches the failure mode and unparks any requests held by Hang
// (they answer 503, so a late un-hang never counterfeits a success).
func (p *Proxy) Set(m Mode) {
	p.mode.Store(int32(m))
	p.mu.Lock()
	close(p.release)
	p.release = make(chan struct{})
	p.mu.Unlock()
}

// SetSlow enters Slow mode with the given per-response delay.
func (p *Proxy) SetSlow(d time.Duration) {
	p.delay.Store(int64(d))
	p.Set(Slow)
}

// Kill is worker death: the listener closes and every open connection
// is dropped; new connections are refused. The process-level equivalent
// of SIGKILL, as seen from the router.
func (p *Proxy) Kill() {
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart revives a killed worker on its original address, so recovery
// (death → probe failure → Down → probe success → Up) is testable.
func (p *Proxy) Restart() error {
	ln, err := net.Listen("tcp", p.addr)
	if err != nil {
		return err
	}
	p.serveOn(ln)
	return nil
}

// Close shuts the proxy down for good.
func (p *Proxy) Close() { p.Kill() }

func (p *Proxy) releaseCh() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.release
}

func (p *Proxy) serve(w http.ResponseWriter, r *http.Request) {
	mode := Mode(p.mode.Load())
	if mode == Hang {
		select {
		case <-r.Context().Done():
		case <-p.releaseCh():
		}
		http.Error(w, "chaos: request was hung", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path != httpapi.Version+"/compare" {
		// Data-plane-only faults leave probes and registration honest.
		p.inner.ServeHTTP(w, r)
		return
	}
	switch mode {
	case Slow:
		select {
		case <-time.After(time.Duration(p.delay.Load())):
		case <-r.Context().Done():
			return
		}
		p.inner.ServeHTTP(w, r)
	case Corrupt:
		rec := newRecorder()
		p.inner.ServeHTTP(rec, r)
		body := rec.buf.Bytes()
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		// Promise the whole body, deliver half, cut the line: the
		// client's read must fail with an unexpected EOF, never parse
		// a truncated m8 stream as a complete result. (An empty body
		// cannot be truncated — sever before the status line instead.)
		if len(body) == 0 {
			panic(http.ErrAbortHandler)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(rec.code)
		w.Write(body[:len(body)/2])
		// Push the half-body onto the wire before severing; without the
		// flush net/http discards its buffer on abort and the client
		// sees a refused response instead of a torn one.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case Torn:
		rec := newRecorder()
		p.inner.ServeHTTP(rec, r)
		body := rec.buf.Bytes()
		for k, vs := range rec.header {
			if k == "X-Scoris-Status" {
				// The sealing trailer is exactly what a torn stream
				// never delivers.
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		if len(body) == 0 {
			panic(http.ErrAbortHandler)
		}
		// No Content-Length: the response goes out chunked, half the
		// body is flushed onto the wire, and the abort cuts the chunk
		// stream mid-flight — the reader sees an unexpected EOF, not a
		// terminated body.
		w.WriteHeader(rec.code)
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case Reject:
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"chaos: worker sheds load"}`, http.StatusTooManyRequests)
	default:
		p.inner.ServeHTTP(w, r)
	}
}

// recorder is a minimal in-memory ResponseWriter for Corrupt mode (the
// full response must exist before its truncation can be staged).
type recorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), code: http.StatusOK}
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }
