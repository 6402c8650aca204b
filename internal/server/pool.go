package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/blastn"
)

// sessionKey identifies one reusable blastn.Session lineage: the
// database bank (pointer identity — registered banks are immutable and
// unique per name) and the exact engine options. blastn.Options is a
// flat comparable struct, so it can key the map directly.
type sessionKey struct {
	db  *bank.Bank
	opt blastn.Options
}

// sessionPool is the checkout pool for the non-concurrent-safe
// blastn.Session: a request checks a session out for its whole compare
// and checks it back in afterwards, so each session is owned by at most
// one goroutine at a time. The Session's own atomic in-use guard
// (blastn.Session.Compare panics on overlap) is the backstop this pool
// is designed never to trip.
//
// Sessions are created on demand — a burst of concurrent blastn
// requests against one db gets one session each, bounded by the
// server's admission control — and at most maxIdle per key are kept
// for reuse; the rest are dropped for the GC. That caps idle memory at
// maxIdle × O(len(db.Data)) per (db, options) key while still letting
// the steady state serve warm sessions with zero allocation.
type sessionPool struct {
	mu      sync.Mutex
	idle    map[sessionKey][]*blastn.Session // guardedby: mu
	maxIdle int

	created   atomic.Int64
	checkouts atomic.Int64
}

func newSessionPool(maxIdle int) *sessionPool {
	return &sessionPool{
		idle:    make(map[sessionKey][]*blastn.Session),
		maxIdle: maxIdle,
	}
}

// checkout hands the caller exclusive use of a session for (db, opt),
// reusing an idle one when available. The caller must checkin the
// session when done (on every path — the session is lost otherwise,
// which is safe but wastes the warm arrays).
func (p *sessionPool) checkout(db *bank.Bank, opt blastn.Options) (*blastn.Session, error) {
	p.checkouts.Add(1)
	k := sessionKey{db: db, opt: opt}
	p.mu.Lock()
	if ss := p.idle[k]; len(ss) > 0 {
		s := ss[len(ss)-1]
		ss[len(ss)-1] = nil
		p.idle[k] = ss[:len(ss)-1]
		p.mu.Unlock()
		return s, nil
	}
	p.mu.Unlock()
	// Create outside the lock: NewSession allocates O(len(db.Data))
	// arrays and must not serialize the whole pool.
	s, err := blastn.NewSession(db, opt)
	if err != nil {
		return nil, err
	}
	p.created.Add(1)
	return s, nil
}

// checkin returns a session to the idle list, dropping it when the
// per-key idle bound is already met.
func (p *sessionPool) checkin(db *bank.Bank, opt blastn.Options, s *blastn.Session) {
	k := sessionKey{db: db, opt: opt}
	p.mu.Lock()
	if len(p.idle[k]) < p.maxIdle {
		p.idle[k] = append(p.idle[k], s)
	}
	p.mu.Unlock()
}

// drop discards every idle session of db; the server calls it when the
// bank is deregistered, so the pool never pins a deleted bank (each
// idle session holds the bank plus O(len(db.Data)) of arrays).
func (p *sessionPool) drop(db *bank.Bank) {
	p.mu.Lock()
	for k := range p.idle {
		if k.db == db {
			delete(p.idle, k)
		}
	}
	p.mu.Unlock()
}

// idleCount reports the total idle sessions across keys (for /stats).
func (p *sessionPool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		n += len(ss)
	}
	return n
}
