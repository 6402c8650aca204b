package ixdisk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
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
// The flow on an exact miss: scan the directory, Probe each candidate's
// metadata (header + footer — no payload reads), collect the stored
// prefixes of the request, and try them longest first with full
// validation. Every failure just drops to the next candidate and
// ultimately to a clean miss: the build fallback is always sound, so
// this whole path is opportunistic.

// probeResult is one candidate file: a stored prefix of the request.
type probeResult struct {
	path string
	k    int // stored sequence count
}

// compatPrefix decides from probed metadata alone whether the file at
// info could be an extension base for (b, opts): it records a strict
// prefix of b, k sequences long. extendV3 re-validates everything; this
// only prunes the candidate list.
func compatPrefix(info *FileInfo, b *bank.Bank, opts index.Options) (k int, ok bool) {
	k = info.NumSeqs
	if !ixcache.SameKey(info.Opts, opts) || k < 1 || k >= b.NumSeqs() || info.DataLen != int64(b.PrefixLen(k)) {
		return 0, false
	}
	sums := b.SeqChecksums()
	for i := 0; i < k; i++ {
		if info.SeqSums[i] != sums[i] {
			return 0, false
		}
	}
	return k, true
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
		info, err := Probe(path)
		if err != nil {
			continue
		}
		if k, ok := compatPrefix(info, b, opts); ok {
			out = append(out, probeResult{path: path, k: k})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k > out[j].k })
	return out
}

// extendV3 completes a stored prefix file into the full index for
// (b, opts): decode the stored blocks (each CRC-checked) against the
// grown bank — block coordinates are append-stable, so they are valid
// verbatim — build one block over the appended suffix, and reassemble.
// Only the suffix is scanned; the returned footer and suffix block let
// the caller append in place. The file's identity as a strict prefix
// of b is re-checked from scratch — the probe's cheap pass authorizes
// nothing. A mapped store reads the stored blocks in place: the merge
// copies them into arrays the index owns, so the mapping is gone before
// the file is written to.
func (s *DirStore) extendV3(path string, b *bank.Bank, opts index.Options) (*ixcache.Prepared, *index.BlockParts, *footerV3, error) {
	x, err := openIndexFile(path, &opts)
	if err != nil {
		return nil, nil, nil, err
	}
	defer x.f.Close()
	k := int(x.ftr.numSeqs)
	if k >= b.NumSeqs() || x.ftr.dataLen != uint64(b.PrefixLen(k)) {
		return nil, nil, nil, fmt.Errorf("ixdisk: %w: stored file (%d sequences, %d bytes) is not a strict prefix of bank %q",
			ErrKeyMismatch, k, x.ftr.dataLen, b.Name)
	}
	if err := x.ftr.checkPrefixSums(b, k); err != nil {
		return nil, nil, nil, err
	}
	s.mu.Lock()
	mapped := s.mapped
	s.mu.Unlock()
	m, err := x.mapping(mapped)
	if err != nil {
		return nil, nil, nil, err
	}
	defer m.Close()
	blocks, err := x.allBlocks(m)
	if err != nil {
		return nil, nil, nil, err
	}
	s.blockLoads.Add(int64(len(blocks)))
	suffix, err := index.BuildBlock(b, opts, k, b.NumSeqs())
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := x.prepare(b, append(blocks, suffix))
	if err != nil {
		return nil, nil, nil, err
	}
	return p, &suffix, x.ftr, nil
}

// loadViaPrefix is the exact-miss fallback of DirStore.Load: complete
// the longest stored prefix of (b, opts) and persist the result. A clean
// (nil, nil) miss when no candidate survives — never an error, reuse is
// best-effort.
func (s *DirStore) loadViaPrefix(b *bank.Bank, opts index.Options, exactPath string) (*ixcache.Prepared, error) {
	for _, cand := range s.prefixCandidates(b, opts, exactPath) {
		p, suffix, ftr, err := s.extendV3(cand.path, b, opts)
		if err != nil {
			continue
		}
		s.extends.Add(1)
		backing := s.persistAppend(cand.path, exactPath, p, suffix, ftr)
		s.memoize(exactPath, backing, b, p, nil)
		return p, nil
	}
	return nil, nil
}

// persistAppend makes a completed extension durable by the O(suffix)
// route: write the suffix block over the old footer, write the grown
// footer, rename the file to the exact key's path. Policy-gated and
// best-effort like every write-back — failure never fails the load,
// the next cold process just extends again — but if the in-place
// append fails a full save is attempted, and a genuine I/O failure of
// that is counted (WriteBackErrors) so a store that can no longer be
// written doesn't read as healthy. It returns the path now backing the
// index: exactPath once written, else the untouched oldPath.
func (s *DirStore) persistAppend(oldPath, exactPath string, p *ixcache.Prepared, suffix *index.BlockParts, ftr *footerV3) string {
	s.mu.Lock()
	pol := s.policy
	isDB := s.dbBanks[p.Bank]
	gcCfg := s.gcCfg
	s.mu.Unlock()
	if !pol.allows(p.Bank, isDB) {
		s.savesDeclined.Add(1)
		return oldPath
	}
	if err := appendBlockAt(oldPath, exactPath, p.Bank, suffix, ftr); err != nil {
		if err := s.Save(p); err != nil {
			if !errors.Is(err, ixcache.ErrSaveDeclined) {
				s.writeBackErrs.Add(1)
			}
			return oldPath
		}
		return exactPath
	}
	s.blockAppends.Add(1)
	touchFile(exactPath)
	if gcCfg.MaxBytes > 0 || gcCfg.MaxAge > 0 {
		_, _ = s.GC()
	}
	return exactPath
}

// Extends returns how many exact misses this store satisfied by
// completing a stored prefix index with one block built over its
// appended suffix — the append-aware reuse counter the CLIs surface
// next to builds and disk hits.
func (s *DirStore) Extends() int64 { return s.extends.Load() }

// SavesDeclined returns how many saves the store's SavePolicy refused.
func (s *DirStore) SavesDeclined() int64 { return s.savesDeclined.Load() }

// WriteBackErrors returns how many extension write-backs failed with a
// genuine I/O error (policy declines excluded). These never pass
// through the cache's save path, so they are invisible to
// ixcache.Cache.DiskErrors; the CLIs add the two counters together.
func (s *DirStore) WriteBackErrors() int64 { return s.writeBackErrs.Load() }

// BlockLoads returns how many blocks the store has decoded and
// CRC-checked from disk — exact loads and extension bases both count.
func (s *DirStore) BlockLoads() int64 { return s.blockLoads.Load() }

// BlockAppends returns how many times the store grew a stored file
// in place by exactly one suffix block (plus footer) instead of
// rewriting it.
func (s *DirStore) BlockAppends() int64 { return s.blockAppends.Load() }
