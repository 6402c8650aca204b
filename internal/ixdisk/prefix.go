package ixdisk

import (
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bank"
	"repro/internal/index"
)

// Append-aware reuse: satisfying an exact miss from the bank's lineage.
//
// Whole-bank identity makes a growing bank pathological: append one EST
// run and every cached index of the bank is garbage. The per-sequence
// checksum vector fixes the granularity: a stored file recording the
// first k sequences of the requesting bank is completed by building one
// block over the appended suffix and — policy permitting — appended in
// place: one new block plus a rewritten footer, O(suffix) bytes written,
// never a rewrite of the stored prefix. The lineage runs that one way: a
// bank that is a prefix of a stored larger one is a clean miss and a
// build.
//
// The flow on an exact miss: scan the directory, open each candidate as
// far as its metadata (header + footer — no payload reads), collect the
// stored prefixes of the request, and try them longest first with full
// validation. Every failure just drops to the next candidate and
// ultimately to a clean miss: the build fallback is always sound, so
// this whole path is opportunistic.

// probeResult is one candidate file: a stored prefix of the request.
type probeResult struct {
	path string
	k    int // stored sequence count
}

// prefixCandidates scans the store directory for files that could serve
// (b, opts), longest stored prefix first — smallest suffix to build.
// Files are pre-filtered by the sanitized bank-name prefix DirStore.Path
// gives every save, so an exact miss probes only the requesting bank's
// own lineage — O(files of this bank) metadata reads, not O(store)
// full-file opens — at the cost that a bank re-loaded under a different
// display name rebuilds instead of reusing (sound: reuse is
// opportunistic).
func (s *DirStore) prefixCandidates(b *bank.Bank, opts index.Options, exactPath string) []probeResult {
	key := opts.Key()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	namePrefix := sanitizeName(b.Name) + "-"
	var out []probeResult
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, FileExt) || !strings.HasPrefix(name, namePrefix) {
			continue
		}
		path := filepath.Join(s.dir, name)
		if path == exactPath {
			continue
		}
		x, err := openIndexFile(path, &key)
		if err != nil {
			continue
		}
		k, err := x.ftr.prefixOf(b)
		x.f.Close()
		if err == nil {
			out = append(out, probeResult{path: path, k: k})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k > out[j].k })
	return out
}

// loadViaPrefix is the exact-miss fallback of DirStore.Load: complete
// the longest stored prefix of (b, opts) and persist the result. loadFile
// takes the stored blocks in place — block coordinates are append-stable,
// so they are valid verbatim against the grown bank — and builds one
// block over the suffix; the append persistAppend then writes to the
// same file rewrites none of the bytes the parts alias (Mapping). A
// clean (nil, nil) miss when no candidate survives — never an error,
// reuse is best-effort.
func (s *DirStore) loadViaPrefix(b *bank.Bank, opts index.Options, exactPath string, mapped bool) (*index.Index, error) {
	for _, cand := range s.prefixCandidates(b, opts, exactPath) {
		ix, m, suffix, ftr, err := loadFile(cand.path, b, opts, mapped, false)
		if err != nil {
			continue
		}
		s.blockLoads.Add(int64(len(ftr.dir)))
		s.extends.Add(1)
		backing := s.persistAppend(cand.path, exactPath, ix, suffix, ftr)
		s.memoize(exactPath, backing, ix, m)
		return ix, nil
	}
	return nil, nil
}

// persistAppend makes a completed extension durable by the O(suffix)
// route: write the suffix block over the old footer, write the grown
// footer, rename the file to the exact key's path — and, if that
// in-place append fails, a full save to the exact path. It is one
// write-back through the store's gate (writeBack), so a decline and a
// failure are counted like a save's, and neither fails the load: the
// next cold process just extends again. It returns the path now
// backing the index: exactPath once written, else the untouched oldPath.
func (s *DirStore) persistAppend(oldPath, exactPath string, ix *index.Index, suffix *index.BlockParts, ftr *footer) string {
	written, _ := s.writeBack(ix.Bank, func() error {
		if err := appendBlockAt(oldPath, exactPath, ix.Bank, suffix, ftr); err != nil {
			return Save(exactPath, ix)
		}
		s.blockAppends.Add(1)
		touchFile(exactPath)
		return nil
	})
	if !written {
		return oldPath
	}
	return exactPath
}

// Extends returns how many exact misses this store satisfied by
// completing a stored prefix index with one block built over its
// appended suffix — the append-aware reuse counter the CLIs surface
// next to builds and disk hits.
func (s *DirStore) Extends() int64 { return s.extends.Load() }

// SavesDeclined returns how many write-backs — saves and appends — the
// store's SavePolicy refused. Each decline is counted here and nowhere
// else.
func (s *DirStore) SavesDeclined() int64 { return s.savesDeclined.Load() }

// WriteBackErrors returns how many write-backs — fresh saves, and
// appends whose fallback save failed too — failed with an I/O error
// (declines excluded). Each failure is counted here and nowhere else.
func (s *DirStore) WriteBackErrors() int64 { return s.writeBackErrs.Load() }

// BlockLoads returns how many blocks the store has decoded and
// CRC-checked from disk — exact loads and extension bases both count.
func (s *DirStore) BlockLoads() int64 { return s.blockLoads.Load() }

// BlockAppends returns how many times the store grew a stored file
// in place by exactly one suffix block (plus footer) instead of
// rewriting it.
func (s *DirStore) BlockAppends() int64 { return s.blockAppends.Load() }
