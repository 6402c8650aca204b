package ixdisk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// checksum vector fixes the granularity — and with block-structured
// files the reuse works in both directions:
//
//   - a stored file recording a *larger* bank of which the requesting
//     bank is a block-boundary prefix serves the request by loading
//     only the covering blocks (no build work at all, and appends
//     always leave a boundary at the pre-append count);
//   - a stored file recording the first k sequences of the requesting
//     bank is completed by building one block over the appended suffix
//     and — policy permitting — appended in place: one new block plus
//     a rewritten footer, O(suffix) bytes written, never a rewrite of
//     the stored prefix.
//
// The flow on an exact miss: scan the directory, Probe each candidate's
// metadata (header + footer — no payload reads), collect compatible
// candidates, and try them best-first with full validation. Partial
// loads win over extensions (they cost no build), longer stored
// prefixes over shorter. Every failure just drops to the next candidate
// and ultimately to a clean miss: the build fallback is always sound,
// so this whole path is opportunistic.

// probeResult is one compatible candidate file.
type probeResult struct {
	path string
	k    int  // stored sequence count
	part bool // stored file is larger; serve b from its leading blocks
}

// compatPrefix decides from probed metadata alone whether the file at
// info could serve (b, opts): either as a partial load (info records a
// larger bank with a block boundary exactly at b's end) or as an
// extension base (info records a strict prefix of b). The loaders
// re-validate everything; this only prunes the candidate list.
func compatPrefix(info *FileInfo, b *bank.Bank, opts index.Options) (k int, part, ok bool) {
	if !ixcache.SameKey(info.Opts, opts) {
		return 0, false, false
	}
	sums := b.SeqChecksums()
	switch {
	case info.NumSeqs > b.NumSeqs():
		if !slices.ContainsFunc(info.Blocks, func(blk BlockInfo) bool {
			return blk.SeqHi == b.NumSeqs() && blk.DataHi == int64(len(b.Data))
		}) {
			return 0, false, false
		}
		for i := range sums {
			if info.SeqSums[i] != sums[i] {
				return 0, false, false
			}
		}
		return info.NumSeqs, true, true
	case info.NumSeqs >= 1 && info.NumSeqs < b.NumSeqs():
		k = info.NumSeqs
		if info.DataLen != int64(b.PrefixLen(k)) {
			return 0, false, false
		}
		for i := 0; i < k; i++ {
			if info.SeqSums[i] != sums[i] {
				return 0, false, false
			}
		}
		return k, false, true
	}
	return 0, false, false
}

// prefixCandidates scans the store directory for files that could serve
// (b, opts), best candidate first: partial loads (smallest stored bank
// first — fewest blocks to read), then extension bases (longest stored
// prefix first — smallest suffix to build). Files are pre-filtered by
// the sanitized bank-name prefix DirStore.Path gives every save, so an
// exact miss probes only the requesting bank's own lineage — O(files
// of this bank) metadata reads, not O(store) full-file opens — at the
// cost that a bank re-loaded under a different display name rebuilds
// instead of reusing (sound: reuse is opportunistic).
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
		if k, part, ok := compatPrefix(info, b, opts); ok {
			out = append(out, probeResult{path: path, k: k, part: part})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].part != out[j].part {
			return out[i].part
		}
		if out[i].part {
			return out[i].k < out[j].k
		}
		return out[i].k > out[j].k
	})
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

// loadViaPrefix is the exact-miss fallback of DirStore.Load: find the
// best stored relative of (b, opts) and serve the request from it —
// partial-load a larger stored file, or complete a stored prefix and
// persist the result. A clean (nil, nil) miss when no candidate
// survives — never an error, reuse is best-effort.
func (s *DirStore) loadViaPrefix(b *bank.Bank, opts index.Options, exactPath string) (*ixcache.Prepared, error) {
	for _, cand := range s.prefixCandidates(b, opts, exactPath) {
		if cand.part {
			p, loaded, err := loadLeading(cand.path, b, opts)
			if err != nil {
				continue
			}
			s.blockLoads.Add(int64(loaded))
			// Nothing to write back: the stored file already holds this
			// bank's blocks (and more). Touching keeps the GC honest about
			// the file being in active use.
			touchFile(cand.path)
			s.memoize(exactPath, cand.path, b, p, nil)
			return p, nil
		}
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
// CRC-checked from disk — exact loads, partial loads, and extension
// bases all count, so BlockLoads < (blocks on disk touched · loads)
// quantifies how much partial loading saves.
func (s *DirStore) BlockLoads() int64 { return s.blockLoads.Load() }

// BlockAppends returns how many times the store grew a stored file
// in place by exactly one suffix block (plus footer) instead of
// rewriting it.
func (s *DirStore) BlockAppends() int64 { return s.blockAppends.Load() }
