package ixdisk

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/bank"
)

// Store housekeeping: what gets written, and what gets collected.
//
// A DirStore is one file per (bank content, options) key, so without
// bounds it grows monotonically: every single-use query bank leaves an
// index behind, every appended-to bank strands its superseded prefix
// files, and a writer killed mid-Save leaves a .orix-tmp-* staging file
// forever (the in-process cleanup is a defer — it never runs in a
// killed process). SavePolicy bounds the first at the source; the GC
// bounds the rest by inspection. There is deliberately no manifest:
// the directory itself is the only state, everything the collector
// needs comes from ReadDir + Stat, so any process (or an operator's rm)
// can manage the store without coordination.

// DefaultTmpGrace is how old a .orix-tmp-* staging file must be before
// the sweep treats it as litter from a dead writer rather than a live
// Save in progress. Saves complete in well under a second; an hour is
// paranoid.
const DefaultTmpGrace = time.Hour

// SavePolicy bounds what a DirStore persists. The zero value saves
// everything (the PR-3 behavior).
type SavePolicy struct {
	// DBOnly persists only banks registered via MarkDB — the caller
	// hint for "this is the database side; query banks are single-use".
	DBOnly bool
	// MinBases, when positive, declines banks smaller than this many
	// bases — the size heuristic for the same distinction when the
	// caller doesn't hint (query banks are typically much smaller than
	// the database bank they run against).
	MinBases int
}

// allows reports whether the policy permits persisting bank b. A bank
// marked as a database bank is always persisted.
func (p SavePolicy) allows(b *bank.Bank, isDB bool) bool {
	if isDB {
		return true
	}
	if p.DBOnly {
		return false
	}
	return p.MinBases <= 0 || b.TotalBases() >= p.MinBases
}

// SetSavePolicy installs the store's save policy. Declined saves return
// ixcache.ErrSaveDeclined to the cache tier and count under
// SavesDeclined.
func (s *DirStore) SetSavePolicy(p SavePolicy) {
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
}

// MarkDB registers b as a database bank: its indexes are persisted
// regardless of policy. Call it for the long-lived side of the workload
// (scoris -d, the harness's subject banks). The store remembers at most
// memoBound marks, expiring the oldest deterministically (FIFO) — a
// caller juggling more than 64 simultaneous database banks should use
// SavePolicy.MinBases instead of per-bank hints.
func (s *DirStore) MarkDB(b *bank.Bank) {
	s.mu.Lock()
	if !s.dbBanks[b] {
		s.dbBanks[b] = true
		s.dbOrder = append(s.dbOrder, b)
		for len(s.dbOrder) > memoBound {
			delete(s.dbBanks, s.dbOrder[0])
			s.dbOrder = s.dbOrder[1:]
		}
	}
	s.mu.Unlock()
}

// GCConfig bounds the store directory. Zero fields mean "no bound" of
// that kind; the zero value collects nothing but still sweeps temp
// litter.
type GCConfig struct {
	// MaxBytes caps the total size of .orix files; the oldest (by
	// mtime, which successful loads refresh, making eviction LRU-ish)
	// are removed until the total fits.
	MaxBytes int64
	// MaxAge removes .orix files whose mtime is older than this.
	MaxAge time.Duration
	// TmpGrace overrides DefaultTmpGrace for the temp-litter sweep.
	TmpGrace time.Duration
}

// SetGC installs the store's GC bounds. When either cap is set, every
// successful Save also runs a best-effort collection, so a long-lived
// store converges toward its bounds without explicit GC calls.
func (s *DirStore) SetGC(cfg GCConfig) {
	s.mu.Lock()
	s.gcCfg = cfg
	s.mu.Unlock()
}

// GCStats reports one collection. Block counts come from each file's
// footer directory (one cheap Probe per file — metadata only); a file
// the probe rejects counts zero blocks.
type GCStats struct {
	Scanned         int   // .orix files examined
	Removed         int   // .orix files deleted (age or size cap)
	RemovedBytes    int64 // bytes those files held
	RemovedBlocks   int   // blocks those files held
	RemovedTmps     int   // stale .orix-tmp-* staging files swept
	Remaining       int   // .orix files left
	RemainingBytes  int64 // bytes they hold
	RemainingBlocks int   // blocks they hold
}

func (g GCStats) String() string {
	return fmt.Sprintf("removed %d files (%d bytes, %d blocks) and %d stale temp files; %d files (%d bytes, %d blocks) remain",
		g.Removed, g.RemovedBytes, g.RemovedBlocks, g.RemovedTmps, g.Remaining, g.RemainingBytes, g.RemainingBlocks)
}

// GC collects the store directory under the configured bounds: sweep
// stale temp files, drop .orix files over the age cap, then drop
// oldest-first until under the size cap. Manifest-free and stat-based,
// so it is safe to run concurrently with readers and writers in any
// process: deleting a file a reader has open (or mmap'd) only unlinks
// the name — the inode lives until the last reference drops — and a
// concurrent Save's rename either lands before the scan (and is the
// newest file, last to be evicted) or after it (and is collected by
// the next run).
func (s *DirStore) GC() (GCStats, error) {
	s.mu.Lock()
	cfg := s.gcCfg
	s.mu.Unlock()
	return s.gcWith(cfg, time.Now())
}

// gcWith is GC with injectable config and clock (tests).
func (s *DirStore) gcWith(cfg GCConfig, now time.Time) (GCStats, error) {
	var st GCStats
	st.RemovedTmps = s.sweepTmp(cfg.TmpGrace, now)

	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return st, fmt.Errorf("ixdisk: GC: %w", err)
	}
	type file struct {
		path   string
		size   int64
		mod    time.Time
		blocks int
	}
	var files []file
	var total int64
	var totalBlocks int
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), FileExt) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent delete
		}
		st.Scanned++
		f := file{path: filepath.Join(s.dir, e.Name()), size: fi.Size(), mod: fi.ModTime()}
		if info, err := Probe(f.path); err == nil {
			f.blocks = len(info.Blocks)
		}
		files = append(files, f)
		total += f.size
		totalBlocks += f.blocks
	}

	remove := func(f file) {
		if os.Remove(f.path) == nil {
			st.Removed++
			st.RemovedBytes += f.size
			st.RemovedBlocks += f.blocks
			total -= f.size
			totalBlocks -= f.blocks
		}
	}
	if cfg.MaxAge > 0 {
		kept := files[:0]
		for _, f := range files {
			if now.Sub(f.mod) > cfg.MaxAge {
				remove(f)
			} else {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	if cfg.MaxBytes > 0 && total > cfg.MaxBytes {
		sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
		for _, f := range files {
			if total <= cfg.MaxBytes {
				break
			}
			remove(f)
		}
	}
	st.Remaining = st.Scanned - st.Removed
	st.RemainingBytes = total
	st.RemainingBlocks = totalBlocks
	return st, nil
}

// sweepTmp removes .orix-tmp-* staging files older than grace
// (DefaultTmpGrace when non-positive) — the litter a process killed
// mid-Save leaves behind, since its deferred cleanup never ran. Runs
// at store open and during every GC. Returns how many were removed.
func (s *DirStore) sweepTmp(grace time.Duration, now time.Time) int {
	if grace <= 0 {
		grace = DefaultTmpGrace
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(fi.ModTime()) > grace {
			if os.Remove(filepath.Join(s.dir, e.Name())) == nil {
				n++
			}
		}
	}
	return n
}
