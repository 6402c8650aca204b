// Package ixcache turns the bank index from a per-call temporary into a
// persistent, shared artifact: a prepared-bank session subsystem for the
// ORIS reproduction.
//
// The ordered-index design front-loads work into the index build so that
// intensive all-vs-all comparison amortizes it (PAPER.md; DESIGN.md §2
// records that the sorted CSR build deliberately does *more* work than
// the legacy chain build in exchange for faster scans). That trade only
// pays off if a built index is reused. This package provides the two
// pieces callers need:
//
//   - Prepared — a bank paired with the immutable index.Index built from
//     it for one exact index.Options value;
//   - Cache — a concurrency-safe, size-bounded LRU keyed by
//     (bank identity, W, SampleStep, SamplePhase, dust parameters), with
//     single-flight semantics so concurrent callers share one build per
//     (bank, options) pair, an optional persistent second tier (Store,
//     implemented by package ixdisk) so the build amortizes across
//     processes, not just within one, and Drop for the owner of a bank
//     that is going away, so the cache never pins the indexes of banks
//     nobody can name any more.
//
// # Reuse contract
//
// A built index.Index is immutable after Build returns: nothing in this
// repository writes to its arrays, so any number of goroutines may read
// one Index (and therefore one Prepared) concurrently without locking.
// An Index is valid only for the exact (bank, Options) pair it was built
// from: the bank value it captured (banks are immutable, so identity is
// the right notion of sameness) and the exact seed length, sampling
// schedule, and dust parameters. Comparing with an index built for
// different options silently changes which seeds exist — which is why
// core.CompareWithIndex and blat.CompareWithIndex verify the match and
// refuse mismatched indexes instead of producing wrong output.
//
// Options.Workers is deliberately NOT part of the cache key: the CSR
// build is canonical — byte-identical output for any worker count
// (DESIGN.md §2) — so builds requested with different parallelism are the
// same artifact.
package ixcache

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/bank"
	"repro/internal/index"
)

// DefaultMaxEntries is the cache bound used when New is given a
// non-positive size. Each entry retains its bank's full CSR index
// (≈ 16 bytes per indexed position plus 8 per distinct seed code,
// DESIGN.md §3 — sized by the bank, so small query banks cost little),
// so the bound is a working-set knob, not a correctness one.
const DefaultMaxEntries = 32

// Prepared pairs a bank with the immutable index built from it. The
// fields are exported for read access; construct values with Prepare or
// Cache.Get so Ix really was built from Bank.
type Prepared struct {
	Bank *bank.Bank
	Ix   *index.Index
}

// Prepare builds a bank's index directly, without a cache. It is the
// one-shot constructor; long-lived callers holding many banks should go
// through Cache.Get.
func Prepare(b *bank.Bank, opts index.Options) *Prepared {
	return &Prepared{Bank: b, Ix: index.Build(b, opts)}
}

// MatchesOptions reports whether p is a self-consistent prepared value
// (its index really was built from its bank) built with exactly these
// options — the validity test of the reuse contract. Options compare by
// their cache-key projection (Workers excluded; dust maskers compared
// by parameter value, not identity).
func (p *Prepared) MatchesOptions(opts index.Options) bool {
	return p != nil && p.Ix != nil && p.Ix.Bank == p.Bank &&
		optionsKey(p.Ix.Options()) == optionsKey(opts)
}

// optKey is the comparable projection of index.Options used in cache
// keys: everything that changes the built index, nothing that doesn't.
type optKey struct {
	w             int
	sampleStep    int
	samplePhase   int
	dust          bool
	dustWindow    int
	dustThreshold float64
}

// SameKey reports whether two option values project to the same cache
// key — the canonical "would these build the same index?" test, shared
// with the on-disk store (package ixdisk) so the two tiers agree on
// what counts as a match.
func SameKey(a, b index.Options) bool {
	return optionsKey(a) == optionsKey(b)
}

// optionsKey normalizes opts the same way index.Build does (SampleStep
// < 1 means 1; SamplePhase reduced mod SampleStep) so equivalent option
// values alias to one cache entry.
func optionsKey(o index.Options) optKey {
	step := o.SampleStep
	if step < 1 {
		step = 1
	}
	phase := o.SamplePhase % step
	if phase < 0 {
		phase += step
	}
	k := optKey{w: o.W, sampleStep: step, samplePhase: phase}
	if o.Dust != nil {
		k.dust = true
		k.dustWindow = o.Dust.Window
		k.dustThreshold = o.Dust.Threshold
	}
	return k
}

// Key identifies one (bank, options) build in a Cache. Bank identity is
// pointer identity: banks are immutable once constructed, so two equal
// pointers always denote the same content, and two different banks never
// share an entry even if their contents happen to coincide.
type Key struct {
	bank *bank.Bank
	opts optKey
}

// KeyFor derives the cache key for a (bank, options) pair.
func KeyFor(b *bank.Bank, opts index.Options) Key {
	return Key{bank: b, opts: optionsKey(opts)}
}

// entry is one cache slot. The sync.Once gives single-flight builds:
// every concurrent Get for the same key shares the pointer to one entry
// and exactly one of them runs the build; the rest block on the Once.
// done flips after the build so eviction can tell finished entries from
// in-flight ones (an in-flight entry must stay in the map, or a
// concurrent Get of its key would start a duplicate build).
type entry struct {
	key   Key
	opts  index.Options
	once  sync.Once
	ready *Prepared
	done  atomic.Bool
}

// ErrSaveDeclined is returned by Store.Save when the store's save
// policy declines to persist the value (ixdisk.SavePolicy: query banks
// below a size floor, banks not marked as database banks). A declined
// save is deliberate housekeeping, not a failure: the cache counts it
// under SavesDeclined instead of DiskErrors.
var ErrSaveDeclined = errors.New("ixcache: store save declined by policy")

// Store is an optional persistent second tier below the in-memory LRU:
// Load returns a previously saved Prepared for exactly (b, opts), or
// (nil, nil) on a clean miss; Save persists a freshly built one. A
// non-nil Load error means a file existed but was rejected (corrupt,
// wrong key) — the cache falls back to a fresh build and writes it
// back, healing the store. Save may decline by policy with an error
// wrapping ErrSaveDeclined. Implementations must be safe for concurrent
// use; package ixdisk provides the on-disk implementation (whose Load
// also satisfies a miss from a stored prefix of the bank, completed by
// one appended block — transparent to this interface).
type Store interface {
	Load(b *bank.Bank, opts index.Options) (*Prepared, error)
	Save(p *Prepared) error
}

// BlockCounters is the optional observability face of a block-aware
// store: how many blocks it has decoded from disk and how many
// in-place block appends it has performed. Cache.Counters folds these
// into its snapshot when the attached store provides them.
type BlockCounters interface {
	BlockLoads() int64
	BlockAppends() int64
}

// Cache is a concurrency-safe, size-bounded LRU of prepared banks.
// The zero value is not ready; use New.
type Cache struct {
	mu    sync.Mutex
	max   int
	items map[Key]*list.Element // guardedby: mu
	order *list.List            // guardedby: mu ; front = most recently used
	store Store

	builds        atomic.Int64
	lookups       atomic.Int64
	evictions     atomic.Int64
	diskHits      atomic.Int64
	diskErrs      atomic.Int64
	savesDeclined atomic.Int64
}

// New returns a cache bounded to maxEntries prepared banks
// (DefaultMaxEntries when non-positive). The bound can be exceeded
// transiently while more than maxEntries keys are building — see
// evictLocked.
func New(maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{
		max:   maxEntries,
		items: make(map[Key]*list.Element),
		order: list.New(),
	}
}

// Get returns the prepared index for (b, opts), building it at most once
// per key no matter how many goroutines ask concurrently. The returned
// Prepared stays valid after eviction — eviction only drops the cache's
// reference, never invalidates an index a caller already holds.
func (c *Cache) Get(b *bank.Bank, opts index.Options) *Prepared {
	c.lookups.Add(1)
	k := KeyFor(b, opts)

	c.mu.Lock()
	el, ok := c.items[k]
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
			p, err := s.Load(b, e.opts)
			switch {
			case err != nil:
				c.diskErrs.Add(1)
			case p != nil:
				c.diskHits.Add(1)
				e.ready = p
				return
			}
		}
		c.builds.Add(1)
		e.ready = Prepare(b, e.opts)
		builtHere = true
	})
	// The write-back runs outside the Once, on the builder goroutine
	// only: concurrent waiters get the ready index as soon as the build
	// finishes instead of also waiting out the disk write. Save is
	// atomic (temp + rename), so racing writers across caches or
	// processes are last-wins over identical bytes.
	if builtHere {
		if s := c.getStore(); s != nil {
			switch err := s.Save(e.ready); {
			case errors.Is(err, ErrSaveDeclined):
				c.savesDeclined.Add(1)
			case err != nil:
				c.diskErrs.Add(1)
			}
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

// Drop evicts every finished entry built from bank b, whatever its
// options — for owners that know the bank is gone (a deregistered query
// bank) and should not wait for the LRU to notice. Builds still in
// flight are left alone: their waiters get the result, and the entry
// then ages out through the size bound like any other. Prepared values
// callers already hold stay valid.
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

// DiskErrors returns how many Store operations failed (rejected files
// on Load, write failures on Save). Store errors never fail a Get —
// the cache builds fresh — so this counter is the only trace. Saves
// declined by the store's policy are not errors; see SavesDeclined.
func (c *Cache) DiskErrors() int64 { return c.diskErrs.Load() }

// SavesDeclined returns how many write-backs the store's save policy
// declined (ErrSaveDeclined) — the trace that single-use query indexes
// are being kept out of a policy-bounded store, not silently lost.
func (c *Cache) SavesDeclined() int64 { return c.savesDeclined.Load() }

// Counters is a point-in-time snapshot of the cache's counters, in one
// value so observers (the scorisd /stats endpoint, log lines) read a
// coherent set instead of six racing loads. The JSON tags are the wire
// names scorisd serves.
type Counters struct {
	Builds        int64 `json:"builds"`
	Lookups       int64 `json:"lookups"`
	Evictions     int64 `json:"evictions"`
	DiskHits      int64 `json:"disk_hits"`
	DiskErrors    int64 `json:"disk_errors"`
	SavesDeclined int64 `json:"saves_declined"`
	// BlockLoads and BlockAppends come from the attached store when it
	// implements BlockCounters (block-granular I/O); zero otherwise.
	BlockLoads   int64 `json:"block_loads"`
	BlockAppends int64 `json:"block_appends"`
	Entries      int   `json:"entries"`
}

// Counters snapshots the cache's counters and current size. Each field
// is individually atomic; the snapshot is taken without the cache lock
// (except Entries), so counts racing with in-flight Gets may be off by
// the in-flight operation — fine for the monitoring use it serves.
// When the attached store implements BlockCounters its block-granular
// counters are folded into the snapshot.
func (c *Cache) Counters() Counters {
	cs := Counters{
		Builds:        c.builds.Load(),
		Lookups:       c.lookups.Load(),
		Evictions:     c.evictions.Load(),
		DiskHits:      c.diskHits.Load(),
		DiskErrors:    c.diskErrs.Load(),
		SavesDeclined: c.savesDeclined.Load(),
		Entries:       c.Len(),
	}
	if bc, ok := c.getStore().(BlockCounters); ok {
		cs.BlockLoads = bc.BlockLoads()
		cs.BlockAppends = bc.BlockAppends()
	}
	return cs
}
