package ixcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/index"
)

func testBank(t testing.TB, name, seq string) *bank.Bank {
	t.Helper()
	return bank.New(name, []*fasta.Record{{ID: name, Seq: []byte(seq)}})
}

// randomishSeq builds a deterministic non-repetitive sequence long
// enough to index at W=8 without tripping the dust filter everywhere.
func randomishSeq(n int) string {
	const alpha = "ACGT"
	buf := make([]byte, n)
	state := uint32(12345)
	for i := range buf {
		state = state*1664525 + 1013904223
		buf[i] = alpha[state>>30]
	}
	return string(buf)
}

func TestGetBuildsOncePerKey(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	c := New(8)
	p1 := c.Get(b, index.Options{W: 8})
	p2 := c.Get(b, index.Options{W: 8})
	if p1 != p2 {
		t.Error("same key returned different indexes")
	}
	if got := c.Builds(); got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	if p1 == nil || p1.Bank != b {
		t.Errorf("index not built from its bank: %+v", p1)
	}
}

// TestKeyDiscrimination pins the cache-key contract: options that change
// the built index never alias, and options that cannot change it
// (Workers, normalized sampling) do alias.
func TestKeyDiscrimination(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	b2 := testBank(t, "b2", randomishSeq(512))
	c := New(64)

	base := index.Options{W: 8}
	distinct := []index.Options{
		base,
		{W: 9},
		{W: 8, SampleStep: 2},
		{W: 8, SampleStep: 4},
		{W: 8, Dust: true},
	}
	for _, o := range distinct {
		c.Get(b, o)
	}
	if got, want := c.Builds(), int64(len(distinct)); got != want {
		t.Fatalf("distinct options: builds = %d, want %d", got, want)
	}

	// A different bank with identical options is a different key.
	c.Get(b2, base)
	if got := c.Builds(); got != int64(len(distinct))+1 {
		t.Errorf("bank identity not in key: builds = %d", got)
	}

	// Aliases: Workers is excluded; SampleStep 0 and 1 both mean "every
	// position".
	aliases := []index.Options{
		{W: 8, Workers: 3},
		{W: 8, SampleStep: 1},
		{W: 8, SampleStep: 0},
	}
	before := c.Builds()
	for _, o := range aliases {
		c.Get(b, o)
	}
	if got := c.Builds(); got != before {
		t.Errorf("equivalent options rebuilt: builds went %d -> %d", before, got)
	}
}

func TestLRUEviction(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	c := New(2)
	o1 := index.Options{W: 6}
	o2 := index.Options{W: 7}
	o3 := index.Options{W: 8}

	c.Get(b, o1)
	c.Get(b, o2)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Touch o1 so o2 is least-recently used, then insert o3.
	c.Get(b, o1)
	c.Get(b, o3)
	if c.Len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	before := c.Builds()
	c.Get(b, o1) // still resident: no rebuild
	if c.Builds() != before {
		t.Error("LRU evicted the recently-used entry")
	}
	c.Get(b, o2) // evicted: rebuilds
	if c.Builds() != before+1 {
		t.Error("evicted entry was not rebuilt on next Get")
	}
}

// TestConcurrentSingleBuild hammers one key from many goroutines; run
// with -race this also proves the lookup path is data-race free.
func TestConcurrentSingleBuild(t *testing.T) {
	b := testBank(t, "b", randomishSeq(4096))
	c := New(4)
	const goroutines = 32
	var wg sync.WaitGroup
	got := make([]*index.Index, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get(b, index.Options{W: 8, Workers: 1 + i%4})
		}(i)
	}
	wg.Wait()
	if c.Builds() != 1 {
		t.Errorf("concurrent lookups ran %d builds, want 1", c.Builds())
	}
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different index", i)
		}
	}
}

// TestConcurrentDistinctKeys checks that the singleflight of one key
// does not serialize other keys and that counters stay consistent.
func TestConcurrentDistinctKeys(t *testing.T) {
	b := testBank(t, "b", randomishSeq(2048))
	c := New(16)
	ws := []int{6, 7, 8, 9}
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		for _, w := range ws {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c.Get(b, index.Options{W: w})
			}(w)
		}
	}
	wg.Wait()
	if got, want := c.Builds(), int64(len(ws)); got != want {
		t.Errorf("builds = %d, want %d", got, want)
	}
	if c.Len() != len(ws) {
		t.Errorf("len = %d, want %d", c.Len(), len(ws))
	}
}

// fakeStore is an in-memory Store double that records traffic and can
// inject load and save failures — the disk tier's cache-side contract
// tested without any file I/O (package ixdisk tests the real files).
type fakeStore struct {
	mu        sync.Mutex
	entries   map[key]*index.Index
	loads     int
	saves     int
	failOne   bool // next Load returns an injected error
	failSaves bool // every Save returns an injected error
}

func newFakeStore() *fakeStore { return &fakeStore{entries: map[key]*index.Index{}} }

func (s *fakeStore) Load(b *bank.Bank, opts index.Options) (*index.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.failOne {
		s.failOne = false
		return nil, errInjected
	}
	return s.entries[key{b, opts.Key()}], nil
}

func (s *fakeStore) Save(ix *index.Index) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failSaves {
		return errInjected
	}
	s.saves++
	s.entries[key{ix.Bank, ix.Options().Key()}] = ix
	return nil
}

var errInjected = fmt.Errorf("injected store failure")

// TestStoreTierOrder pins the lookup order: memory LRU first (no store
// traffic on a memory hit), then store, then build with write-back.
func TestStoreTierOrder(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	s := newFakeStore()
	c := New(8)
	c.SetStore(s)

	p1 := c.Get(b, index.Options{W: 8}) // miss everywhere: build + save
	if c.Builds() != 1 || c.DiskHits() != 0 || s.loads != 1 || s.saves != 1 {
		t.Fatalf("cold get: builds=%d diskHits=%d loads=%d saves=%d, want 1/0/1/1",
			c.Builds(), c.DiskHits(), s.loads, s.saves)
	}
	p2 := c.Get(b, index.Options{W: 8}) // memory hit: store untouched
	if p2 != p1 || s.loads != 1 {
		t.Fatalf("memory hit touched the store (loads=%d) or returned a new value", s.loads)
	}

	c2 := New(8) // fresh memory tier, same store: disk hit, no build
	c2.SetStore(s)
	p3 := c2.Get(b, index.Options{W: 8})
	if c2.Builds() != 0 || c2.DiskHits() != 1 {
		t.Fatalf("warm cache: builds=%d diskHits=%d, want 0/1", c2.Builds(), c2.DiskHits())
	}
	if p3 != p1 {
		t.Error("fake store should round-trip the identical index")
	}
}

// TestStoreErrorFallsBackToBuild: a failing store load never fails a
// Get; the cache builds, counts the error, and still writes back.
func TestStoreErrorFallsBackToBuild(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	s := newFakeStore()
	s.failOne = true
	c := New(8)
	c.SetStore(s)
	p := c.Get(b, index.Options{W: 8})
	if p == nil {
		t.Fatal("Get returned no index despite store failure")
	}
	if c.Builds() != 1 || c.DiskErrors() != 1 || s.saves != 1 {
		t.Fatalf("builds=%d diskErrs=%d saves=%d, want 1/1/1", c.Builds(), c.DiskErrors(), s.saves)
	}
}

// TestStoreSaveDeclined: a write-back the store does not make —
// declined by its policy or failed — never fails the Get, and the cache
// does not count it: what became of a write-back is the store's to
// count.
func TestStoreSaveDeclined(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	s := newFakeStore()
	s.failSaves = true
	c := New(8)
	c.SetStore(s)
	p := c.Get(b, index.Options{W: 8})
	if p == nil {
		t.Fatal("Get returned no index despite a failing save")
	}
	if c.Builds() != 1 || c.DiskErrors() != 0 || s.saves != 0 {
		t.Fatalf("builds=%d diskErrs=%d saves=%d, want 1/0/0",
			c.Builds(), c.DiskErrors(), s.saves)
	}
}

// TestStoreSingleFlight: concurrent Gets for one key produce exactly
// one store load and either one disk hit or one build — the
// single-flight contract extends to the disk tier.
func TestStoreSingleFlight(t *testing.T) {
	b := testBank(t, "b", randomishSeq(2048))
	s := newFakeStore()
	s.Save(index.Build(b, index.Options{W: 8})) // pre-populate
	baseline := s.saves
	c := New(8)
	c.SetStore(s)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Get(b, index.Options{W: 8})
		}()
	}
	wg.Wait()
	if s.loads != 1 || c.DiskHits() != 1 || c.Builds() != 0 || s.saves != baseline {
		t.Errorf("loads=%d diskHits=%d builds=%d saves=%d, want 1/1/0/%d",
			s.loads, c.DiskHits(), c.Builds(), s.saves, baseline)
	}
}

// TestCountersSnapshot: the one-call snapshot (what scorisd's /stats
// serves) agrees with the individual counter accessors.
func TestCountersSnapshot(t *testing.T) {
	b1 := testBank(t, "b1", randomishSeq(512))
	b2 := testBank(t, "b2", randomishSeq(600))
	c := New(8)
	c.Get(b1, index.Options{W: 8})
	c.Get(b1, index.Options{W: 8}) // hit
	c.Get(b2, index.Options{W: 8})

	got := c.Counters()
	want := Counters{
		Builds:     c.Builds(),
		Lookups:    c.Lookups(),
		Evictions:  c.Evictions(),
		DiskHits:   c.DiskHits(),
		DiskErrors: c.DiskErrors(),
		Entries:    c.Len(),
	}
	if got != want {
		t.Errorf("Counters() = %+v, accessors say %+v", got, want)
	}
	if got.Builds != 2 || got.Lookups != 3 || got.Entries != 2 {
		t.Errorf("counter values off: %+v", got)
	}
}

// TestDropEvictsOneBank: Drop removes every finished entry of its bank,
// whatever the options, counts them as evictions, and touches no other
// bank's entries; a later Get of a dropped key rebuilds.
func TestDropEvictsOneBank(t *testing.T) {
	db := testBank(t, "db", randomishSeq(512))
	q := testBank(t, "q", randomishSeq(400))
	c := New(8)
	held := c.Get(q, index.Options{W: 8})
	c.Get(q, index.Options{W: 8, SampleStep: 2})
	c.Get(db, index.Options{W: 8})
	c.Drop(q)
	if c.Len() != 1 || c.Evictions() != 2 {
		t.Fatalf("after Drop: len=%d evictions=%d, want 1/2", c.Len(), c.Evictions())
	}
	if held.Bank != q {
		t.Error("Drop invalidated an index the caller holds")
	}
	before := c.Builds()
	c.Get(db, index.Options{W: 8})
	if c.Builds() != before {
		t.Error("Drop evicted another bank's entry")
	}
	if c.Get(q, index.Options{W: 8}) == held || c.Builds() != before+1 {
		t.Error("dropped entry was not rebuilt on the next Get")
	}
	c.Drop(testBank(t, "stranger", "ACGT")) // no entries: a no-op
	if c.Len() != 2 {
		t.Errorf("Drop of an unknown bank changed the cache: len=%d", c.Len())
	}
}

// gatedStore blocks every Load until released, holding a Get in flight
// for as long as a test needs.
type gatedStore struct {
	entered chan struct{} // one token per Load that reached the gate
	release chan struct{} // closed to let Loads return
}

func (s *gatedStore) Load(*bank.Bank, index.Options) (*index.Index, error) {
	s.entered <- struct{}{}
	<-s.release
	return nil, nil
}

func (s *gatedStore) Save(*index.Index) error { return nil }

// TestDropLeavesInFlightBuild: a Drop that lands while its bank's index
// is still building must not detach the entry — a Get arriving after it
// would start a second build — and the waiters get the one result. Run
// with -race.
func TestDropLeavesInFlightBuild(t *testing.T) {
	b := testBank(t, "b", randomishSeq(2048))
	s := &gatedStore{entered: make(chan struct{}, 1), release: make(chan struct{})}
	c := New(8)
	c.SetStore(s)
	const waiters = 8
	got := make([]*index.Index, waiters)
	var wg sync.WaitGroup
	get := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Get(b, index.Options{W: 8})
		}()
	}
	get(0)
	<-s.entered // the build is in flight

	c.Drop(b)
	if c.Len() != 1 || c.Evictions() != 0 {
		t.Fatalf("Drop removed an in-flight entry: len=%d evictions=%d", c.Len(), c.Evictions())
	}
	for i := 1; i < waiters; i++ {
		get(i)
	}
	c.Drop(b)
	close(s.release)
	wg.Wait()

	if c.Builds() != 1 {
		t.Errorf("builds = %d, want 1: Drop let a second build start", c.Builds())
	}
	for i, p := range got {
		if p == nil || p != got[0] || p.Bank != b {
			t.Fatalf("waiter %d lost the build's result: %+v", i, p)
		}
	}
	// Finished now, so the next Drop takes it.
	c.Drop(b)
	if c.Len() != 0 || c.Evictions() != 1 {
		t.Errorf("finished entry survived Drop: len=%d evictions=%d", c.Len(), c.Evictions())
	}
}
