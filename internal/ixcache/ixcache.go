// Package ixcache turns the bank index from a per-call temporary into a
// persistent, shared artifact: a prepared-bank session subsystem for the
// ORIS reproduction.
//
// The ordered-index design front-loads work into the index build so that
// intensive all-vs-all comparison amortizes it (PAPER.md; DESIGN.md §2
// records that the sorted CSR build deliberately does *more* work than
// the legacy chain build in exchange for faster scans). That trade only
// pays off if a built index is reused. A built index.Index is the
// prepared bank — it holds the bank it was built from (Index.Bank) and
// the options it was built with — and this package provides the Cache
// that shares them: a concurrency-safe, size-bounded LRU keyed by
// (bank identity, index.Key), with single-flight semantics so
// concurrent callers share one build per (bank, options) pair, an
// optional persistent second tier (Store, implemented by package
// ixdisk, which counts its own reads and writes) so the build amortizes
// across processes, not just within one, and Drop for the owner of a
// bank that is going away, so the cache never pins the indexes of banks
// nobody can name any more.
//
// # Reuse contract
//
// A built index.Index is immutable after Build returns: nothing in this
// repository writes to its arrays, so any number of goroutines may read
// one Index concurrently without locking. An Index is valid only for
// the exact (bank, Options) pair it was built from: the bank value it
// captured (banks are immutable, so identity is the right notion of
// sameness) and its index.Key — the exact seed length, sampling
// schedule, and dust on/off. Comparing with an index built for
// different options silently changes which seeds exist — which is why
// core.CompareWithIndex and blat.CompareWithIndex check the Key and
// refuse mismatched indexes instead of producing wrong output.
//
// Options.Workers is deliberately NOT part of the key: the CSR build
// is canonical — byte-identical output for any worker count
// (DESIGN.md §2) — so builds requested with different parallelism are
// the same artifact.
package ixcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/index"
)

// DefaultMaxEntries is the cache bound used when New is given a
// non-positive size. Each entry retains its bank's full CSR index,
// what Index.MemoryBytes counts: 4 bytes per indexed position, 4 per
// distinct seed code of Offsets, and the directory in whichever form is
// smaller — Codes and Top, about 4.5 bytes a code, or the Bits and Rank
// of a dense part, 4^W/8 + 4^W/128 bytes (DESIGN.md §3). It is sized by
// the bank, so small query banks cost little, and the bound is a
// working-set knob, not a correctness one.
const DefaultMaxEntries = 32

// key identifies one (bank, options) build in a Cache. Bank identity is
// pointer identity: banks are immutable once constructed, so two equal
// pointers always denote the same content, and two different banks never
// share an entry even if their contents happen to coincide.
type key struct {
	bank *bank.Bank
	opts index.Key
}

// entry is one cache slot. The sync.Once gives single-flight builds:
// every concurrent Get for the same key shares the pointer to one entry
// and exactly one of them runs the build; the rest block on the Once.
// done flips after the build so eviction can tell finished entries from
// in-flight ones (an in-flight entry must stay in the map, or a
// concurrent Get of its key would start a duplicate build).
type entry struct {
	key   key
	opts  index.Options
	once  sync.Once
	ready *index.Index
	done  atomic.Bool
}

// Store is an optional persistent second tier below the in-memory LRU:
// Load returns a previously saved index for exactly (b, opts), or
// (nil, nil) on a clean miss; Save persists a freshly built one. A
// non-nil Load error means a file existed but was rejected (corrupt,
// wrong key) — the cache falls back to a fresh build and writes it
// back, healing the store. What becomes of a write-back — written,
// declined by the store's policy, or failed — is the store's to count:
// the cache ignores Save's result, and a failed write never fails a
// Get. Implementations must be safe for concurrent use; package ixdisk
// provides the on-disk implementation (whose Load also satisfies a miss
// from a stored prefix of the bank, completed by one appended block —
// transparent to this interface).
type Store interface {
	Load(b *bank.Bank, opts index.Options) (*index.Index, error)
	Save(ix *index.Index) error
}

// Cache is a concurrency-safe, size-bounded LRU of built indexes.
// The zero value is not ready; use New.
type Cache struct {
	mu    sync.Mutex
	max   int
	items map[key]*list.Element // guardedby: mu
	order *list.List            // guardedby: mu ; front = most recently used
	store Store

	builds    atomic.Int64
	lookups   atomic.Int64
	evictions atomic.Int64
	diskHits  atomic.Int64
	diskErrs  atomic.Int64
}

// New returns a cache bounded to maxEntries indexes
// (DefaultMaxEntries when non-positive). The bound can be exceeded
// transiently while more than maxEntries keys are building — see
// evictLocked.
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:   maxEntries,
		items: make(map[key]*list.Element),
		order: list.New(),
	}
}

// Get returns the index of b for opts, building it at most once per key
// no matter how many goroutines ask concurrently. The returned index
// stays valid after eviction — eviction only drops the cache's
// reference, never invalidates an index a caller already holds.
func (c *Cache) Get(b *bank.Bank, opts index.Options) *index.Index {
	c.lookups.Add(1)
	k := key{bank: b, opts: opts.Key()}

	c.mu.Lock()
	el, ok := c.items[k]
	if ok && c.revokedLocked(el) {
		ok = false
	}
	if ok {
		c.order.MoveToFront(el)
	} else {
		el = c.order.PushFront(&entry{key: k, opts: opts})
		c.items[k] = el
	}
	// Evict on every lookup, not just inserts: entries that were
	// in-flight (unevictable) during an earlier overflow get collected
	// by the next Get after their builds finish.
	c.evictLocked()
	e := el.Value.(*entry)
	c.mu.Unlock()

	// The build runs outside the cache lock so a slow build never blocks
	// lookups of other keys; waiters for this key serialize on the Once.
	// Tier order on a memory miss: disk store (if attached), then a
	// fresh build — so across processes an index is built once and
	// loaded ever after.
	var builtHere bool
	e.once.Do(func() {
		defer e.done.Store(true)
		if s := c.getStore(); s != nil {
			ix, err := s.Load(b, e.opts)
			switch {
			case err != nil:
				c.diskErrs.Add(1)
			case ix != nil:
				c.diskHits.Add(1)
				e.ready = ix
				return
			}
		}
		c.builds.Add(1)
		e.ready = index.Build(b, e.opts)
		builtHere = true
	})
	// The write-back runs outside the Once, on the builder goroutine
	// only: concurrent waiters get the ready index as soon as the build
	// finishes instead of also waiting out the disk write. Save is
	// atomic (temp + rename), so racing writers across caches or
	// processes are last-wins over identical bytes.
	if builtHere {
		if s := c.getStore(); s != nil {
			_ = s.Save(e.ready) // the store counts a declined or failed write
		}
	}
	return e.ready
}

// SetStore attaches a persistent second tier consulted on every
// in-memory miss and written back after every build. Attach it before
// sharing the cache; a nil store detaches the tier.
func (c *Cache) SetStore(s Store) {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

func (c *Cache) getStore() Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// evictLocked enforces the size bound, walking from the LRU end and
// skipping entries whose build is still in flight — evicting one would
// let a concurrent Get of the same key start a duplicate build. The
// cache may therefore briefly exceed its bound when more than max keys
// are building at once; the bound is restored as builds finish and
// later Gets evict.
func (c *Cache) evictLocked() {
	over := c.order.Len() - c.max
	for el := c.order.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if c.removeIfDoneLocked(el) {
			over--
		}
		el = prev
	}
}

// removeIfDoneLocked evicts el unless its build is still in flight.
func (c *Cache) removeIfDoneLocked(el *list.Element) bool {
	e := el.Value.(*entry)
	if !e.done.Load() {
		return false
	}
	c.order.Remove(el)
	delete(c.items, e.key)
	c.evictions.Add(1)
	return true
}

// revokedLocked drops el, and counts a store error, when its index is a
// loaded one a failed window proof revoked (index.Index.Revoked): it is
// never served again, and the next Get loads or builds afresh.
func (c *Cache) revokedLocked(el *list.Element) bool {
	e := el.Value.(*entry)
	if !e.done.Load() || e.ready == nil || !e.ready.Revoked() {
		return false
	}
	c.order.Remove(el)
	delete(c.items, e.key)
	c.diskErrs.Add(1)
	return true
}

// Drop evicts every finished entry built from bank b, whatever its
// options — for owners that know the bank is gone (a deregistered query
// bank) and should not wait for the LRU to notice. Builds still in
// flight are left alone: their waiters get the result, and the entry
// then ages out through the size bound like any other. Indexes callers
// already hold stay valid.
func (c *Cache) Drop(b *bank.Bank) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).key.bank == b {
			c.removeIfDoneLocked(el)
		}
		el = next
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Builds returns the total number of index builds the cache has run —
// the amortization counter: a workload of P pairs over K distinct
// (bank, options) keys should report exactly K.
func (c *Cache) Builds() int64 { return c.builds.Load() }

// Lookups returns the total number of Get calls.
func (c *Cache) Lookups() int64 { return c.lookups.Load() }

// Evictions returns how many entries the size bound or Drop has pushed
// out.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// DiskHits returns how many misses were satisfied by the attached
// Store instead of a build — the cross-process amortization counter: a
// warm process over K keys should report K disk hits and zero Builds.
func (c *Cache) DiskHits() int64 { return c.diskHits.Load() }

// DiskErrors returns how many stored indexes the cache could not use:
// files the store's Load rejected, and loaded indexes revoked by a
// failed window proof. Neither fails a Get — the cache builds fresh —
// so this counter is the only trace. A failed or declined write-back is
// the store's to count (ixdisk.DirStore.WriteBackErrors and
// SavesDeclined).
func (c *Cache) DiskErrors() int64 { return c.diskErrs.Load() }

// Counters is a point-in-time snapshot of the cache's counters, in one
// value so observers (the scorisd /stats endpoint, log lines) read a
// coherent set instead of six racing loads. The JSON tags are the wire
// names scorisd serves.
type Counters struct {
	Builds     int64 `json:"builds"`
	Lookups    int64 `json:"lookups"`
	Evictions  int64 `json:"evictions"`
	DiskHits   int64 `json:"disk_hits"`
	DiskErrors int64 `json:"disk_errors"`
	Entries    int   `json:"entries"`
}

// Counters snapshots the cache's counters and current size. Each field
// is individually atomic; the snapshot is taken without the cache lock
// (except Entries), so counts racing with in-flight Gets may be off by
// the in-flight operation — fine for the monitoring use it serves.
func (c *Cache) Counters() Counters {
	return Counters{
		Builds:     c.builds.Load(),
		Lookups:    c.lookups.Load(),
		Evictions:  c.evictions.Load(),
		DiskHits:   c.diskHits.Load(),
		DiskErrors: c.diskErrs.Load(),
		Entries:    c.Len(),
	}
}
