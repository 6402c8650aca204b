package ixcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/dust"
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
		t.Error("same key returned different Prepared values")
	}
	if got := c.Builds(); got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	if p1.Ix == nil || p1.Bank != b || p1.Ix.Bank != b {
		t.Errorf("prepared not wired to its bank: %+v", p1)
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
		{W: 8, SampleStep: 2, SamplePhase: 1},
		{W: 8, SampleStep: 4},
		{W: 8, Dust: dust.New(0, 0)},
		{W: 8, Dust: dust.New(32, 0)},
		{W: 8, Dust: dust.New(0, 1.5)},
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
	// position"; a fresh dust.Masker with equal parameters is the same
	// filter; SamplePhase is reduced mod SampleStep.
	aliases := []index.Options{
		{W: 8, Workers: 3},
		{W: 8, SampleStep: 1},
		{W: 8, SampleStep: 0},
	}
	before := c.Builds()
	for _, o := range aliases {
		c.Get(b, o)
	}
	c.Get(b, index.Options{W: 8, Dust: dust.New(0, 0)})
	c.Get(b, index.Options{W: 8, SampleStep: 2, SamplePhase: 3})
	// Negative and out-of-range phases reduce into [0, step): -1 mod 2
	// is phase 1, -4 mod 3 is phase 2.
	c.Get(b, index.Options{W: 8, SampleStep: 2, SamplePhase: -1})
	if got := c.Builds(); got != before {
		t.Errorf("equivalent options rebuilt: builds went %d -> %d", before, got)
	}
	if SameKey(index.Options{W: 8, SampleStep: 2, SamplePhase: -1},
		index.Options{W: 8, SampleStep: 2, SamplePhase: 1}) == false {
		t.Error("Phase=-1,Step=2 must alias Phase=1,Step=2")
	}
	if SameKey(index.Options{W: 8, SampleStep: 3, SamplePhase: -4},
		index.Options{W: 8, SampleStep: 3, SamplePhase: 2}) == false {
		t.Error("Phase=-4,Step=3 must alias Phase=2,Step=3")
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
	got := make([]*Prepared, goroutines)
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
			t.Fatalf("goroutine %d got a different Prepared", i)
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

func TestMatchesOptions(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	other := testBank(t, "other", randomishSeq(512))
	p := Prepare(b, index.Options{W: 8, Dust: dust.New(0, 0)})

	if !p.MatchesOptions(index.Options{W: 8, Dust: dust.New(64, 2.0)}) {
		t.Error("equal dust parameters should match regardless of masker instance")
	}
	if !p.MatchesOptions(index.Options{W: 8, Dust: dust.New(0, 0), Workers: 7}) {
		t.Error("Workers must not affect validity")
	}
	franken := &Prepared{Bank: other, Ix: p.Ix}
	if franken.MatchesOptions(index.Options{W: 8, Dust: dust.New(0, 0)}) {
		t.Error("an index paired with a bank it was not built from must not match")
	}
	if p.MatchesOptions(index.Options{W: 8}) {
		t.Error("dust on/off must not match")
	}
	if p.MatchesOptions(index.Options{W: 9, Dust: dust.New(0, 0)}) {
		t.Error("different W must not match")
	}
	if p.MatchesOptions(index.Options{W: 8, Dust: dust.New(0, 0), SampleStep: 2}) {
		t.Error("different SampleStep must not match")
	}
	var nilP *Prepared
	if nilP.MatchesOptions(index.Options{W: 8}) {
		t.Error("nil Prepared must not match")
	}
}

// fakeStore is an in-memory Store double that records traffic and can
// inject load failures — the disk tier's cache-side contract tested
// without any file I/O (package ixdisk tests the real files).
type fakeStore struct {
	mu         sync.Mutex
	entries    map[Key]*Prepared
	loads      int
	saves      int
	failOne    bool // next Load returns an injected error
	declineAll bool // Save declines by policy
}

func newFakeStore() *fakeStore { return &fakeStore{entries: map[Key]*Prepared{}} }

func (s *fakeStore) Load(b *bank.Bank, opts index.Options) (*Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.failOne {
		s.failOne = false
		return nil, errInjected
	}
	return s.entries[KeyFor(b, opts)], nil
}

func (s *fakeStore) Save(p *Prepared) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.declineAll {
		return fmt.Errorf("policy says no: %w", ErrSaveDeclined)
	}
	s.saves++
	s.entries[KeyFor(p.Bank, p.Ix.Options())] = p
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
		t.Error("fake store should round-trip the identical Prepared")
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
	if p == nil || p.Ix == nil {
		t.Fatal("Get returned no index despite store failure")
	}
	if c.Builds() != 1 || c.DiskErrors() != 1 || s.saves != 1 {
		t.Fatalf("builds=%d diskErrs=%d saves=%d, want 1/1/1", c.Builds(), c.DiskErrors(), s.saves)
	}
}

// TestStoreSaveDeclined: a save declined by store policy is counted as
// housekeeping, not as a store error, and never fails the Get.
func TestStoreSaveDeclined(t *testing.T) {
	b := testBank(t, "b", randomishSeq(512))
	s := newFakeStore()
	s.declineAll = true
	c := New(8)
	c.SetStore(s)
	p := c.Get(b, index.Options{W: 8})
	if p == nil || p.Ix == nil {
		t.Fatal("Get returned no index despite declined save")
	}
	if c.Builds() != 1 || c.SavesDeclined() != 1 || c.DiskErrors() != 0 || s.saves != 0 {
		t.Fatalf("builds=%d declined=%d diskErrs=%d saves=%d, want 1/1/0/0",
			c.Builds(), c.SavesDeclined(), c.DiskErrors(), s.saves)
	}
}

// TestStoreSingleFlight: concurrent Gets for one key produce exactly
// one store load and either one disk hit or one build — the
// single-flight contract extends to the disk tier.
func TestStoreSingleFlight(t *testing.T) {
	b := testBank(t, "b", randomishSeq(2048))
	s := newFakeStore()
	s.Save(Prepare(b, index.Options{W: 8})) // pre-populate
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
		Builds:        c.Builds(),
		Lookups:       c.Lookups(),
		Evictions:     c.Evictions(),
		DiskHits:      c.DiskHits(),
		DiskErrors:    c.DiskErrors(),
		SavesDeclined: c.SavesDeclined(),
		Entries:       c.Len(),
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
	if held.Ix == nil || held.Ix.Bank != q {
		t.Error("Drop invalidated a Prepared the caller holds")
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

func (s *gatedStore) Load(*bank.Bank, index.Options) (*Prepared, error) {
	s.entered <- struct{}{}
	<-s.release
	return nil, nil
}

func (s *gatedStore) Save(*Prepared) error { return nil }

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
	got := make([]*Prepared, waiters)
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
		if p == nil || p != got[0] || p.Ix.Bank != b {
			t.Fatalf("waiter %d lost the build's result: %+v", i, p)
		}
	}
	// Finished now, so the next Drop takes it.
	c.Drop(b)
	if c.Len() != 0 || c.Evictions() != 1 {
		t.Errorf("finished entry survived Drop: len=%d evictions=%d", c.Len(), c.Evictions())
	}
}
