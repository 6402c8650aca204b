// Package ixdisk persists built CSR bank indexes across processes: the
// on-disk tier below package ixcache's in-memory LRU. The ordered-index
// design front-loads work into the index build so intensive comparison
// amortizes it (PAPER.md); PR 2 made one process amortize it across
// pairs, and this package makes the artifact durable the way inverted-
// index aligners treat their index — a database file built once per
// bank, not a per-run allocation.
//
// # File format
//
// There is one format, version 4 — block-structured: an options-key
// header, CSR blocks over runs of sequences (code directory +
// positions, 4 bytes per occurrence) each carrying its own CRC-32C, and
// a footer holding the bank identity (content CRC-64, per-sequence
// checksum vector) plus a directory of block offsets and ranges. A
// fresh save is one block — the built index, written as it stands and
// used in place when mapped back — and a further block exists only
// where an append wrote one. The full layout and the append discipline
// live in v3.go and DESIGN.md §7. The structure buys what a monolithic
// layout cannot offer: appending to a bank writes exactly one new block
// plus a footer (O(suffix), the file is never rewritten).
//
// Files of any other version — the monolithic v1 and v2 layouts, and
// v3, the same framing with a 12-byte per-occurrence bounds sidecar —
// are rejected with ErrVersion at the header, never parsed, and the
// store heals them by rebuild, like any rejected file (so a store
// shared by old and new binaries rebuilds on every alternation).
//
// Checksums say a file is the file that was written, not who wrote it:
// what the engines rely on — every stored position a real seed window
// of the requesting bank under its slot's code — is proved against the
// bank on every load (index.FromBlocks; DESIGN.md §7).
//
// # Invalidation and append-aware reuse
//
// A file is valid only for the exact (bank content, index options) it
// was saved from. Load and LoadMapped reject, with descriptive errors:
// wrong magic, unknown version, truncated or size-inconsistent files,
// checksum mismatches, and key mismatches (different bank content, W,
// sampling, or dust parameters). Rejection is always safe: the caller
// (ixcache's disk tier) falls back to a fresh build and overwrites the
// bad file, healing the store in place.
//
// The per-sequence checksum vector makes identity finer than
// all-or-nothing: when DirStore misses exactly, it scans the directory
// (metadata-only, via Probe) for a file recording the first k sequences
// of the requesting bank, completes it by building one block over the
// appended suffix and appends that block in place (prefix.go): a grown
// bank pays the suffix once and exact-hits ever after. The lineage runs
// that one way — the bank as it was before an append is a miss and a
// build, saved under its own key.
package ixdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// File naming constants; the layout constants live with the codec in
// v3.go.
const (
	// FileExt is the extension DirStore gives its index files.
	FileExt = ".orix"
	// tmpPattern is the os.CreateTemp pattern for Save's staging files;
	// the GC sweep recognizes litter from killed writers by its prefix.
	tmpPattern = ".orix-tmp-*"
	tmpPrefix  = ".orix-tmp-"
)

// Sentinel errors; returned wrapped with file-specific detail, so test
// with errors.Is.
var (
	ErrBadMagic    = errors.New("not an ORIS index file (bad magic)")
	ErrVersion     = errors.New("unsupported index file version")
	ErrTruncated   = errors.New("index file truncated or size-inconsistent")
	ErrChecksum    = errors.New("index file checksum mismatch (corrupted)")
	ErrKeyMismatch = errors.New("index file key does not match requested (bank, options)")
)

var (
	crc32Table = crc32.MakeTable(crc32.Castagnoli)
	crc64Table = crc64.MakeTable(crc64.ECMA)
)

// BankChecksum returns the content identity of a bank: CRC-64/ECMA over
// its sentinel-bracketed coded Data. Sequence boundaries are part of
// Data (the sentinels), so two banks with equal checksums and lengths
// index identically; the bank's display name is deliberately excluded.
func BankChecksum(b *bank.Bank) uint64 {
	return crc64.Checksum(b.Data, crc64Table)
}

// keySize is the length of the (bank identity, options) key DirStore
// hashes into filenames. Its byte layout is frozen: changing it would
// rename every stored file and turn a warm store cold.
const keySize = 48

// packKey serializes the filename key: bank identity, then options.
func packKey(dst []byte, bankCRC, dataLen uint64, numSeqs uint32, o index.Options) {
	o = o.Normalized()
	binary.LittleEndian.PutUint64(dst[0:], bankCRC)
	binary.LittleEndian.PutUint64(dst[8:], dataLen)
	binary.LittleEndian.PutUint32(dst[16:], numSeqs)
	binary.LittleEndian.PutUint32(dst[20:], uint32(o.W))
	binary.LittleEndian.PutUint32(dst[24:], uint32(o.SampleStep))
	binary.LittleEndian.PutUint32(dst[28:], uint32(o.SamplePhase))
	var dustOn, dw uint32
	var dt uint64
	if o.Dust != nil {
		dustOn = 1
		dw = uint32(o.Dust.Window)
		dt = math.Float64bits(o.Dust.Threshold)
	}
	binary.LittleEndian.PutUint32(dst[32:], dustOn)
	binary.LittleEndian.PutUint32(dst[36:], dw)
	binary.LittleEndian.PutUint64(dst[40:], dt)
}

// word covers the two 4-byte element types of the CSR sections.
type word interface{ ~int32 | ~uint32 }

// writeWords streams a section as little-endian 4-byte elements through
// a fixed scratch buffer.
func writeWords[T word](w io.Writer, vals []T) error {
	const chunk = 8192
	var buf [4 * chunk]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > chunk {
			n = chunk
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// decodeWords copies a validated byte section into a fresh slice —
// Load's portable path, correct on any host byte order.
func decodeWords[T word](sec []byte) []T {
	out := make([]T, len(sec)/4)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(sec[4*i:]))
	}
	return out
}

// touchFile refreshes a file's mtime so the GC's oldest-first eviction
// approximates LRU over actual use, not save order. Best-effort.
func touchFile(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// sanitizeName keeps a bank name filesystem-safe for DirStore paths.
// Purely cosmetic — identity lives in the key hash, not the name.
func sanitizeName(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
	if len(mapped) > 40 {
		mapped = mapped[:40]
	}
	if mapped == "" {
		mapped = "bank"
	}
	return mapped
}

// DirStore is the ixcache.Store implementation over a directory: one
// file per (bank content, options) key, named by the bank's display
// name plus a CRC-64 of the identity key, so concurrent processes
// sharing the directory agree on paths without coordination (Save's
// atomic rename makes concurrent writers last-wins, both writing
// identical bytes).
//
// By default loads go through LoadMapped where the platform supports
// it; SetMapped(false) forces the copying reader. Mappings opened by a
// mapped store stay alive until Close — closing invalidates every
// index the store has loaded, so long-lived callers (CLI sessions,
// the experiment harness) simply let process exit reclaim them.
//
// Beyond exact lookups the store is lifecycle-aware (DESIGN.md §7):
// an exact miss falls back to a stored prefix of the requesting bank,
// completed by one appended block (prefix.go; Extends counts them),
// SetSavePolicy bounds what is persisted, and SetGC + GC keep the
// directory itself bounded.
type DirStore struct {
	dir    string
	mapped bool

	mu       sync.Mutex
	policy   SavePolicy
	gcCfg    GCConfig
	dbBanks  map[*bank.Bank]bool
	dbOrder  []*bank.Bank
	bankCRCs map[*bank.Bank]uint64
	crcOrder []*bank.Bank
	loaded   map[string]*loadedEntry
	ldOrder  []string
	maps     []*Mapping

	extends       atomic.Int64
	savesDeclined atomic.Int64
	writeBackErrs atomic.Int64
	blockLoads    atomic.Int64
	blockAppends  atomic.Int64
}

// DirStore is the cache's disk tier, and its block counters are what
// ixcache.Cache folds into its snapshot.
var (
	_ ixcache.Store         = (*DirStore)(nil)
	_ ixcache.BlockCounters = (*DirStore)(nil)
)

// memoBound caps the per-bank and per-path memo maps. A long-lived
// process churning through query banks would otherwise grow them
// without bound (every retired *bank.Bank pointer pinned forever); the
// bound makes the memos caches, evicted FIFO, at a worst cost of one
// re-checksum or re-validate per evicted key. 64 comfortably covers
// the harness's ~30-key working set.
const memoBound = 64

// loadedEntry memoizes one successful load per key path, so LRU
// evict-and-reload cycles in a bounded cache above the store return
// the already-validated index instead of mapping (and checksumming)
// the same file again — keeping the number of live mappings bounded
// by the number of distinct keys, not the number of reloads. Safe
// because a path encodes the (bank content, options) key and saved
// files for one key are byte-identical; the memo is keyed on the bank
// pointer too, since a Prepared binds to the requesting bank value.
//
// path is the file actually backing the index, which is not always the
// key path: an extension whose append the save policy declined leaves
// only the stored prefix. Memo hits touch path so the GC sees that file
// in use.
type loadedEntry struct {
	bank *bank.Bank
	prep *ixcache.Prepared
	path string
}

// NewDirStore creates the directory if needed and returns a store
// rooted there, memory-mapped where supported. Opening a store sweeps
// temp-file litter left by writers killed mid-Save (older than
// DefaultTmpGrace, so live concurrent writers are never raced).
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ixdisk: %w", err)
	}
	s := &DirStore{
		dir:      dir,
		mapped:   mmapSupported && nativeLittleEndian,
		dbBanks:  map[*bank.Bank]bool{},
		bankCRCs: map[*bank.Bank]uint64{},
		loaded:   map[string]*loadedEntry{},
	}
	s.sweepTmp(DefaultTmpGrace, time.Now())
	return s, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// SetMapped toggles mmap-backed loads (no-op toward true on platforms
// without support). Call before sharing the store.
func (s *DirStore) SetMapped(on bool) {
	s.mu.Lock()
	s.mapped = on && mmapSupported && nativeLittleEndian
	s.mu.Unlock()
}

// bankChecksum caches the O(N) content checksum per bank value, so a
// store consulted for many (bank, options) keys pays it once per bank.
// The memo is bounded (memoBound, FIFO): under query-bank churn in a
// long-lived process it behaves as a cache, not a leak.
func (s *DirStore) bankChecksum(b *bank.Bank) uint64 {
	s.mu.Lock()
	if crc, ok := s.bankCRCs[b]; ok {
		s.mu.Unlock()
		return crc
	}
	s.mu.Unlock()
	// Compute outside the lock: the checksum is O(bank) and pure.
	crc := BankChecksum(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bankCRCs[b]; !ok {
		s.bankCRCs[b] = crc
		s.crcOrder = append(s.crcOrder, b)
		for len(s.crcOrder) > memoBound {
			delete(s.bankCRCs, s.crcOrder[0])
			s.crcOrder = s.crcOrder[1:]
		}
	}
	return crc
}

// Path returns the file a (bank, options) key maps to. Exported so
// tests and operational scripts can inspect or corrupt specific
// entries.
func (s *DirStore) Path(b *bank.Bank, opts index.Options) string {
	var key [keySize]byte
	packKey(key[:], s.bankChecksum(b), uint64(len(b.Data)), uint32(b.NumSeqs()), opts)
	h := crc64.Checksum(key[:], crc64Table)
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x%s", sanitizeName(b.Name), h, FileExt))
}

// Load implements ixcache.Store: (nil, nil) when no file exists for the
// key (and no stored prefix of the bank can be completed — see
// loadViaPrefix), the validated Prepared on success, and a descriptive
// error when a file exists but is rejected (the cache then rebuilds
// and Save overwrites it).
func (s *DirStore) Load(b *bank.Bank, opts index.Options) (*ixcache.Prepared, error) {
	path := s.Path(b, opts)
	s.mu.Lock()
	if e, ok := s.loaded[path]; ok && e.bank == b && e.prep.MatchesOptions(opts) {
		s.mu.Unlock()
		// Memo hits are still uses: refresh the backing file's mtime so
		// the GC's oldest-first eviction never collects a file whose
		// index this process is actively serving from memory.
		touchFile(e.path)
		return e.prep, nil
	}
	mapped := s.mapped
	s.mu.Unlock()

	p, m, blocks, err := loadExact(path, b, opts, mapped)
	if errors.Is(err, fs.ErrNotExist) {
		return s.loadViaPrefix(b, opts, path)
	}
	if err != nil {
		return nil, err
	}
	s.blockLoads.Add(int64(blocks))
	touchFile(path)
	s.memoize(path, path, b, p, m)
	return p, nil
}

// memoize records a successful load (or extension) under its key path,
// together with the file backing it, so LRU evict-and-reload cycles
// above the store return the validated index instead of re-reading the
// file. Bounded (memoBound, FIFO) — see bankChecksum — with the caveat
// that an evicted entry's Mapping stays held until Close, since the
// Prepared it backs may still be in use.
func (s *DirStore) memoize(keyPath, backing string, b *bank.Bank, p *ixcache.Prepared, m *Mapping) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.loaded[keyPath]; !ok {
		s.ldOrder = append(s.ldOrder, keyPath)
		for len(s.ldOrder) > memoBound {
			delete(s.loaded, s.ldOrder[0])
			s.ldOrder = s.ldOrder[1:]
		}
	}
	s.loaded[keyPath] = &loadedEntry{bank: b, prep: p, path: backing}
	if m != nil && m.Mapped() {
		// A superseded entry's mapping (same path, different bank
		// pointer) stays in maps: its Prepared may still be referenced,
		// so it is only released at Close.
		s.maps = append(s.maps, m)
	}
}

// Save implements ixcache.Store: persist a freshly built index under
// its key's path, unless the store's SavePolicy declines it (the
// ixcache.ErrSaveDeclined contract). When GC caps are configured, a
// successful save triggers a best-effort collection so the store
// converges toward its bounds under sustained traffic without anyone
// calling GC explicitly.
func (s *DirStore) Save(p *ixcache.Prepared) error {
	if p == nil || p.Bank == nil || p.Ix == nil {
		return errors.New("ixdisk: DirStore.Save: nil prepared value")
	}
	s.mu.Lock()
	pol := s.policy
	isDB := s.dbBanks[p.Bank]
	gcCfg := s.gcCfg
	s.mu.Unlock()
	if !pol.allows(p.Bank, isDB) {
		s.savesDeclined.Add(1)
		return fmt.Errorf("ixdisk: DirStore.Save: bank %q (%d bases): %w",
			p.Bank.Name, p.Bank.TotalBases(), ixcache.ErrSaveDeclined)
	}
	if err := Save(s.Path(p.Bank, p.Ix.Options()), p); err != nil {
		return err
	}
	if gcCfg.MaxBytes > 0 || gcCfg.MaxAge > 0 {
		_, _ = s.GC()
	}
	return nil
}

// Close releases every mapping the store opened. Every mmap-backed
// index loaded through the store is invalid afterwards; only call this
// once nothing can touch them again.
func (s *DirStore) Close() error {
	s.mu.Lock()
	maps := s.maps
	s.maps = nil
	s.loaded = map[string]*loadedEntry{}
	s.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
