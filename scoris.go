// Package scoris is the public API of this repository: a Go
// reproduction of SCORIS-N, the ORIS (ORdered Index Seed) intensive DNA
// sequence comparison system of Lavenier, "Ordered Index Seed Algorithm
// for Intensive DNA Sequence Comparison" (HiCOMB/IPDPS 2008), together
// with a faithful BLASTN-style baseline for the paper's benchmarks.
//
// Quick start — the prepared-bank session API is the idiomatic entry
// point: build each bank's index once, then compare as many pairs as
// the workload has (the intensive-comparison pattern the ORIS design
// front-loads its index build for):
//
//	db, _ := scoris.LoadBank("db", "db.fasta")
//	cache := scoris.NewIndexCache(0) // 0 = default bound
//	opt := scoris.DefaultOptions()
//	for _, path := range queryFiles {
//		queries, _ := scoris.LoadBank(path, path)
//		p1, p2, _ := scoris.Prepare(cache, db, queries, opt)
//		res, _ := scoris.CompareWithIndex(p1, p2, opt) // db indexed once
//		scoris.WriteM8(os.Stdout, res, db, queries)
//	}
//
// For a one-shot pair, Compare bundles the build and the comparison:
//
//	res, _ := scoris.Compare(bankA, bankB, scoris.DefaultOptions())
//
// The BLASTN-style baseline keeps no index, so it has only the one-shot
// form, CompareBlastn; call it once per query bank.
//
// The heavy lifting lives in internal packages; this package re-exports
// the stable surface: bank loading, prepared indexes, the engines, m8
// output, and the sensitivity comparator used by the paper's
// evaluation.
package scoris

import (
	"context"
	"io"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gapped"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/ixdisk"
	"repro/internal/render"
	"repro/internal/sensemetric"
	"repro/internal/server"
	"repro/internal/tabular"
)

// Bank is an in-memory, 2-bit-encoded DNA bank (paper §2.1).
type Bank = bank.Bank

// Alignment is one gapped alignment between two bank sequences.
type Alignment = align.Alignment

// Options configures the ORIS engine (see core.Options for fields).
type Options = core.Options

// Result is the ORIS engine output: alignments plus run metrics.
type Result = core.Result

// Metrics exposes the per-step counters and timings of a run.
type Metrics = core.Metrics

// BlastnOptions configures the baseline engine.
type BlastnOptions = blastn.Options

// BlastnResult is the baseline engine output.
type BlastnResult = blastn.Result

// M8Record is one line of BLAST "-m 8" tabular output.
type M8Record = tabular.Record

// SensitivityReport holds the paper's §3.4 missed-alignment counters.
type SensitivityReport = sensemetric.Report

// Strand selection re-exports.
const (
	// PlusOnly searches a single strand (the paper's -S 1 mode).
	PlusOnly = core.PlusOnly
	// BothStrands also searches the reverse complement of bank 2.
	BothStrands = core.BothStrands
)

// DefaultOptions returns the paper-plausible ORIS configuration
// (W=11, +1/−3, gap 5/2, E ≤ 1e-3, dust on, single strand).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultBlastnOptions mirrors the paper's blastall invocation.
func DefaultBlastnOptions() BlastnOptions { return blastn.DefaultOptions() }

// LoadBank reads a FASTA file into a Bank.
func LoadBank(name, path string) (*Bank, error) {
	return bank.FromFile(name, path)
}

// ParseBank parses in-memory FASTA text into a Bank.
func ParseBank(name string, fastaText []byte) (*Bank, error) {
	return bank.Parse(name, fastaText)
}

// Compare runs the ORIS pipeline (SCORIS-N) on two banks, building both
// indexes in place. Bank 1 plays the subject/database role of the
// paper's experiments, bank 2 the query role; E-values use m = bank-1
// residues × n = query length. Workloads that reuse a bank across pairs
// should Prepare once and call CompareWithIndex.
func Compare(bank1, bank2 *Bank, opt Options) (*Result, error) {
	return core.Compare(bank1, bank2, opt)
}

// Prepared is a prepared bank: the immutable index built from it, which
// holds the bank. It is safe for any number of concurrent readers and
// valid only for the (bank, options) it was built from — see package
// ixcache for the full reuse contract.
type Prepared = index.Index

// IndexCache is a concurrency-safe, size-bounded LRU of prepared banks;
// concurrent callers share one index build per (bank, options) key.
type IndexCache = ixcache.Cache

// NewIndexCache returns a cache bounded to maxEntries prepared banks
// (a default bound when maxEntries is non-positive).
func NewIndexCache(maxEntries int) *IndexCache { return ixcache.New(maxEntries) }

// IndexStore is the persistent second tier an IndexCache consults below
// its in-memory LRU (lookup order: memory → store → build, with
// write-back), so index builds amortize across processes.
type IndexStore = ixcache.Store

// DirIndexStore is the on-disk IndexStore implementation: one
// versioned, checksummed file per (bank content, index options) key,
// memory-mapped on load where the platform supports it. Identity is
// per-sequence, so a bank that has only been appended to reuses its
// stored index through an O(suffix) extension instead of a rebuild.
// See DESIGN.md §7 for the format, invalidation, and lifecycle rules.
//
// The store is operable under sustained traffic: SetSavePolicy bounds
// what is persisted (IndexSavePolicy), SetGC + GC bound the directory
// itself (IndexGCConfig), and MarkDB hints the long-lived database
// side of a workload. It counts everything that happens to its files:
// Extends, BlockLoads, BlockAppends, and what became of each write-back
// (SavesDeclined, WriteBackErrors), each in one place; the cache counts
// only the stored indexes it could not use (IndexCache.DiskErrors).
type DirIndexStore = ixdisk.DirStore

// IndexSavePolicy bounds what a DirIndexStore persists: with DBOnly,
// only marked database banks, so single-use query indexes never hit
// disk. The zero value persists everything.
type IndexSavePolicy = ixdisk.SavePolicy

// IndexGCConfig bounds a DirIndexStore directory by total size and/or
// file age; stale temp files from killed writers are always swept. See
// DirIndexStore.SetGC and GC.
type IndexGCConfig = ixdisk.GCConfig

// IndexGCStats reports one store collection.
type IndexGCStats = ixdisk.GCStats

// IndexFileInfo is the metadata ProbeIndexFile reads from a stored
// index file without touching its payload: format version, options and
// bank identity, and the per-block directory.
type IndexFileInfo = ixdisk.FileInfo

// IndexBlockInfo describes one block of an index file.
type IndexBlockInfo = ixdisk.BlockInfo

// ProbeIndexFile reads a stored .orix file's metadata — a few KiB of
// header and footer, never the index payload — and reports what the
// file claims to hold. Loaders re-validate everything; a successful
// probe authorizes nothing.
func ProbeIndexFile(path string) (*IndexFileInfo, error) { return ixdisk.Probe(path) }

// NewDirIndexStore returns an on-disk index store rooted at dir
// (created if absent). Attach it with IndexCache.SetStore; repeated
// processes comparing against the same banks then skip every index
// build after the first:
//
//	cache := scoris.NewIndexCache(0)
//	store, _ := scoris.NewDirIndexStore(".scoris-index")
//	cache.SetStore(store)
func NewDirIndexStore(dir string) (*DirIndexStore, error) { return ixdisk.NewDirStore(dir) }

// Prepare builds — or fetches from cache, which may be nil for direct
// builds — the prepared indexes Compare would derive for (bank1, bank2)
// under opt. The results feed CompareWithIndex any number of times.
func Prepare(cache *IndexCache, bank1, bank2 *Bank, opt Options) (p1, p2 *Prepared, err error) {
	return core.Prepare(cache, bank1, bank2, opt)
}

// Emit receives one query sequence's finished alignments from a
// streamed compare. It is called once per bank-2 sequence, in bank
// order, empty groups included; returning an error (or the ctx
// cancelling) stops the compare. The concatenation of the emitted
// groups is exactly Compare's Alignments slice.
type Emit = align.Emit

// CompareStream runs the ORIS pipeline like Compare but delivers each
// query sequence's alignments through emit the moment they are final,
// instead of accumulating the whole result. The returned Result carries
// the run metrics only (its Alignments slice is nil). ctx cancellation
// is honored mid-run — between query groups and at extension-chunk
// claims — which is what makes abandoning a long compare cheap.
func CompareStream(ctx context.Context, bank1, bank2 *Bank, opt Options, emit Emit) (*Result, error) {
	return core.CompareStream(ctx, bank1, bank2, opt, emit)
}

// CompareStreamWithIndex is CompareStream over prepared banks, with the
// same reuse contract as CompareWithIndex: both prepared values must
// match opt exactly.
func CompareStreamWithIndex(ctx context.Context, p1, p2 *Prepared, opt Options, emit Emit) (*Result, error) {
	return core.CompareStreamWithIndex(ctx, p1, p2, opt, emit)
}

// CompareWithIndex runs the ORIS pipeline on prepared banks, skipping
// the index builds. Both prepared values must match opt exactly or an
// error is returned.
func CompareWithIndex(p1, p2 *Prepared, opt Options) (*Result, error) {
	return core.CompareWithIndex(p1, p2, opt)
}

// CompareServer is the embeddable form of the scorisd comparison
// service: bank registry, bounded-concurrency compare endpoints served
// from prepared indexes, and live cache/store counters. Mount Handler() on an http.Server; see package
// internal/server for the request lifecycle and cmd/scorisd for the
// daemon wiring (graceful drain, store flags).
type CompareServer = server.Server

// CompareServerConfig bounds a CompareServer: worker pool size,
// admission queue depth, per-request Workers cap, cache size, and the
// optional persistent index store tier.
type CompareServerConfig = server.Config

// CompareServerStats is the /stats payload of a CompareServer.
type CompareServerStats = server.Stats

// NewCompareServer returns a comparison service for cfg (zero value:
// all defaults, no persistent store).
func NewCompareServer(cfg CompareServerConfig) *CompareServer { return server.New(cfg) }

// FleetRouter is the bank-affinity coordinator over a pool of
// CompareServer workers: registrations fan out to each bank's
// rendezvous owners, compares route to live owners with retry, backoff,
// and backfill across replicas, and a health loop tracks workers
// through up/draining/down. Mount Handler() on an http.Server and call
// Start/Stop around its lifetime; see internal/fleet for the routing
// and degradation semantics and cmd/scoris-router for the daemon.
type FleetRouter = fleet.Router

// FleetRouterConfig tunes a FleetRouter: replication factor, probe
// cadence, retry/backoff shape, and deadlines (zero value: defaults for
// a small local fleet).
type FleetRouterConfig = fleet.Config

// FleetStats is the router's /stats payload: its own routing counters,
// a per-worker breakdown, and fleet-wide totals.
type FleetStats = fleet.Stats

// NewFleetRouter returns a router for cfg; add workers with AddWorker
// (or POST /workers) and call Start to begin health probing.
func NewFleetRouter(cfg FleetRouterConfig) *FleetRouter { return fleet.New(cfg) }

// CompareBlastn runs the BLASTN-style baseline: one full scan of bank 1
// per bank-2 sequence, as 2007-era blastall did.
func CompareBlastn(bank1, bank2 *Bank, opt BlastnOptions) (*BlastnResult, error) {
	return blastn.Compare(bank1, bank2, opt)
}

// ToM8 converts alignments to m8 records (query = bank 2 sequence,
// subject = bank 1 sequence).
func ToM8(alignments []Alignment, bank1, bank2 *Bank) []M8Record {
	out := make([]M8Record, len(alignments))
	for i := range alignments {
		out[i] = tabular.FromAlignment(&alignments[i], bank1, bank2)
	}
	return out
}

// WriteM8 writes a result in BLAST -m 8 format.
func WriteM8(w io.Writer, res *Result, bank1, bank2 *Bank) error {
	return tabular.Write(w, ToM8(res.Alignments, bank1, bank2))
}

// WriteBlastnM8 writes a baseline result in BLAST -m 8 format.
func WriteBlastnM8(w io.Writer, res *BlastnResult, bank1, bank2 *Bank) error {
	return tabular.Write(w, ToM8(res.Alignments, bank1, bank2))
}

// CompareSensitivity applies the paper's 80%-overlap equivalence to two
// m8 result sets (first argument: SCORIS-N output, second: BLASTN
// output) and returns the missed-alignment report of §3.4.
func CompareSensitivity(scorisOut, blastOut []M8Record) SensitivityReport {
	return sensemetric.Compare(scorisOut, blastOut, sensemetric.DefaultMinOverlap)
}

// WritePairwise writes full BLAST-style pairwise alignment blocks (the
// -m 0 display the paper's prototype omits). opt must be the Options
// the result was computed with, so the alignment paths can be recovered
// exactly. Minus-strand alignments are not renderable and produce an
// error.
func WritePairwise(w io.Writer, res *Result, bank1, bank2 *Bank, opt Options) error {
	r := render.New(bank1, bank2, gapped.FromScoring(opt.Scoring, opt.GappedXDrop))
	text, err := r.RenderAll(res.Alignments)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, text)
	return err
}
