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
// There is one format, version 5 — block-structured: an index-key
// header, CSR blocks over runs of sequences (code directory, offsets and
// positions, 4 bytes per occurrence) each carrying its own CRC-32C, and
// a footer holding the bank identity (content CRC-64, per-sequence
// checksum vector) plus a directory of block offsets and ranges. A
// fresh save is one block — the built index, written as it stands and
// used in place when mapped back — and a further block exists only
// where an append wrote one; every block loads as one part of the
// index, never merged with the others. The full layout and the append discipline
// live in codec.go and DESIGN.md §7. The structure buys what a monolithic
// layout cannot offer: appending to a bank writes exactly one new block
// plus a footer (O(suffix), the file is never rewritten).
//
// Files of any other version — the monolithic v1 and v2 layouts; v3,
// the same framing with a 12-byte per-occurrence bounds sidecar; and v4,
// the same framing with per-code counts where v5 keeps offsets — are
// rejected with ErrVersion at the header, never parsed, and the
// store heals them by rebuild, like any rejected file (so a store
// shared by old and new binaries rebuilds on every alternation).
//
// Checksums say a file is the file that was written, not who wrote it:
// what the engines rely on — every stored position a real seed window
// of the requesting bank under its slot's code — is proved against the
// bank in two halves: structure on every load (index.FromBlocks), and
// each slot's windows the first time an engine reads them (index.Index.
// Prove). A failed proof revokes the index, and the store removes its
// file (DESIGN.md §7).
//
// # Invalidation and append-aware reuse
//
// A file is valid only for the exact (bank content, index.Key) it was
// saved from. DirStore's loads reject, with descriptive errors:
// wrong magic, unknown version, truncated or size-inconsistent files,
// checksum mismatches, and key mismatches (different bank content, W,
// sampling, or dust on/off). Rejection is always safe: the caller
// (ixcache's disk tier) falls back to a fresh build and overwrites the
// bad file, healing the store in place.
//
// The per-sequence checksum vector makes identity finer than
// all-or-nothing: when DirStore misses exactly, it scans the directory
// (metadata only: header and footer) for a file recording the first k
// sequences of the requesting bank, completes it by building one block
// over the appended suffix and appends that block in place (prefix.go): a grown
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
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/index"
)

// File naming constants; the layout constants live with the codec in
// codec.go.
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
// A load's index aliases the file's image (Mapping): a mapping where the
// host can alias one, and otherwise, or under SetMapped(false), the file
// read into one buffer. Mappings stay alive until Close — closing
// invalidates every mapped index the store has loaded, so long-lived
// callers (CLI sessions, the experiment harness) simply let process
// exit reclaim them.
//
// Beyond exact lookups the store is lifecycle-aware (DESIGN.md §7):
// an exact miss falls back to a stored prefix of the requesting bank,
// completed by one appended block (prefix.go; Extends counts them),
// SetSavePolicy bounds what is persisted, and SetGC + GC keep the
// directory itself bounded.
type DirStore struct {
	dir    string
	mapped bool

	mu      sync.Mutex
	policy  SavePolicy
	gcCfg   GCConfig
	dbBanks map[[20]byte]struct{}  // bankID of each MarkDB bank
	loaded  map[string]loadedEntry // by key path; bounded by memoBound
	order   []string               // keys of loaded, oldest first
	maps    []*Mapping

	extends       atomic.Int64
	savesDeclined atomic.Int64
	writeBackErrs atomic.Int64
	blockLoads    atomic.Int64
	blockAppends  atomic.Int64
}

// memoBound caps the per-path memo of loaded indexes. A long-lived
// process churning through query banks would otherwise grow it without
// bound (every retired index pinned forever); the bound makes the memo
// a cache, evicted FIFO, at a worst cost of one re-validate per evicted
// key. 64 comfortably covers the harness's ~30-key working set.
const memoBound = 64

// loadedEntry memoizes one successful load per key path, so LRU
// evict-and-reload cycles in a bounded cache above the store return
// the already-validated index instead of mapping (and checksumming)
// the same file again — keeping the number of live mappings bounded
// by the number of distinct keys, not the number of reloads. Safe
// because a path encodes the (bank content, index.Key) key and saved
// files for one key are byte-identical; a hit must also be for the
// same bank pointer, since an index binds to the bank value it was
// loaded for.
//
// path is the file actually backing the index, which is not always the
// key path: an extension whose append the save policy declined leaves
// only the stored prefix. Memo hits touch path so the GC sees that file
// in use.
type loadedEntry struct {
	ix   *index.Index
	path string
}

// NewDirStore creates the directory if needed and returns a store
// rooted there, whose loads map their files where the host can. Opening
// a store sweeps temp-file litter left by writers killed mid-Save (older
// than DefaultTmpGrace, so live concurrent writers are never raced).
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ixdisk: %w", err)
	}
	s := &DirStore{dir: dir, mapped: true, dbBanks: map[[20]byte]struct{}{}, loaded: map[string]loadedEntry{}}
	s.sweepTmp(time.Now())
	return s, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// SetMapped picks the image a load takes: a mapping (the default,
// where the host can alias one) or a read buffer. Call before sharing
// the store.
func (s *DirStore) SetMapped(on bool) {
	s.mu.Lock()
	s.mapped = on
	s.mu.Unlock()
}

// Path returns the file a (bank, options) key maps to. Exported so
// tests and operational scripts can inspect or corrupt specific
// entries.
func (s *DirStore) Path(b *bank.Bank, opts index.Options) string {
	// The key hashed is frozen: bankID, then the index key. A change
	// would rename every stored file and turn a warm store cold.
	var key [20 + keySize]byte
	id := bankID(b)
	copy(key[:], id[:])
	putKey(key[20:], opts.Key())
	h := crc64.Checksum(key[:], crc64Table)
	return filepath.Join(s.dir, fmt.Sprintf("%s-%016x%s", sanitizeName(b.Name), h, FileExt))
}

// bankID is a bank's identity in the store, by content: its content
// CRC, Data length and sequence count. A mark kept under it (MarkDB)
// pins no bank, so the marks need no bound.
func bankID(b *bank.Bank) (id [20]byte) {
	binary.LittleEndian.PutUint64(id[0:], b.Checksum())
	binary.LittleEndian.PutUint64(id[8:], uint64(len(b.Data)))
	binary.LittleEndian.PutUint32(id[16:], uint32(b.NumSeqs()))
	return id
}

// Load implements ixcache.Store: (nil, nil) when no file exists for the
// key (and no stored prefix of the bank can be completed — see
// loadViaPrefix), the validated index of b on success, and a
// descriptive error when a file exists but is rejected (the cache then
// rebuilds and Save overwrites it).
func (s *DirStore) Load(b *bank.Bank, opts index.Options) (*index.Index, error) {
	path := s.Path(b, opts)
	s.mu.Lock()
	e, ok := s.loaded[path]
	mapped := s.mapped
	s.mu.Unlock()
	if ok && e.ix.Bank == b && e.ix.Options().Key() == opts.Key() && !e.ix.Revoked() {
		// Memo hits are still uses: refresh the backing file's mtime so
		// the GC's oldest-first eviction never collects a file whose
		// index this process is actively serving from memory.
		touchFile(e.path)
		return e.ix, nil
	}

	ix, m, _, ftr, err := loadFile(path, b, opts, mapped, true)
	if errors.Is(err, fs.ErrNotExist) {
		return s.loadViaPrefix(b, opts, path, mapped)
	}
	if err != nil {
		return nil, err
	}
	s.blockLoads.Add(int64(len(ftr.dir)))
	touchFile(path)
	s.memoize(path, path, ix, m)
	return ix, nil
}

// memoize records a successful load (or extension) under its key path,
// together with the file backing it, so LRU evict-and-reload cycles
// above the store return the validated index instead of re-reading the
// file, and keeps m, the mapping the index's parts alias, until Close —
// an extended index's mapping included, whose file the append has
// since grown and renamed. Bounded (memoBound, FIFO), so under
// query-bank churn in a long-lived process it behaves as a cache, not a
// leak — with the caveat that an evicted entry's Mapping stays held
// until Close, since the index it backs may still be in use.
//
// The index's windows are proven as they are first read (index.Index.
// Prove). If a proof fails, the store forgets the index and removes the
// file backing it, so no process serves that file again: the next
// request misses, builds, and saves afresh (DESIGN.md §7).
func (s *DirStore) memoize(keyPath, backing string, ix *index.Index, m *Mapping) {
	ix.OnRevoke(func() {
		s.mu.Lock()
		// The key keeps its slot in order: at worst that slot evicts a
		// later entry of the same key early, one re-validate.
		if e, ok := s.loaded[keyPath]; ok && e.ix == ix {
			delete(s.loaded, keyPath)
		}
		s.mu.Unlock()
		_ = os.Remove(backing)
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.loaded[keyPath]; !ok {
		s.order = append(s.order, keyPath)
		if len(s.order) > memoBound {
			delete(s.loaded, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.loaded[keyPath] = loadedEntry{ix: ix, path: backing}
	if m.Mapped() {
		// A superseded entry's mapping (same path, different bank
		// pointer) stays in maps: its index may still be referenced, so
		// it is only released at Close.
		s.maps = append(s.maps, m)
	}
}

// Save implements ixcache.Store: persist a freshly built index under
// its key's path, through the store's write-back gate (writeBack). A
// save the SavePolicy declines writes nothing and returns nil; a failed
// one returns its error. Either is counted by the store.
func (s *DirStore) Save(ix *index.Index) error {
	_, err := s.writeBack(ix.Bank, func() error { return Save(s.Path(ix.Bank, ix.Options()), ix) })
	return err
}

// writeBack is the store's one gate for a write of bank b's index: a
// fresh save and an append base's completion alike. It runs write unless
// the SavePolicy declines b, counting a decline under SavesDeclined and
// a failed write under WriteBackErrors, and after a successful write
// runs a best-effort GC when caps are configured, so the store converges
// toward its bounds under sustained traffic without anyone calling GC.
// written reports whether write ran and succeeded.
func (s *DirStore) writeBack(b *bank.Bank, write func() error) (written bool, err error) {
	id := bankID(b)
	s.mu.Lock()
	_, isDB := s.dbBanks[id]
	allowed := s.policy.allows(isDB)
	gc := s.gcCfg.MaxBytes > 0 || s.gcCfg.MaxAge > 0
	s.mu.Unlock()
	if !allowed {
		s.savesDeclined.Add(1)
		return false, nil
	}
	if err := write(); err != nil {
		s.writeBackErrs.Add(1)
		return false, err
	}
	if gc {
		_, _ = s.GC()
	}
	return true, nil
}

// Close releases every mapping the store opened. Every mmap-backed
// index loaded through the store is invalid afterwards; only call this
// once nothing can touch them again.
func (s *DirStore) Close() error {
	s.mu.Lock()
	maps := s.maps
	s.maps = nil
	s.loaded, s.order = map[string]loadedEntry{}, nil
	s.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
