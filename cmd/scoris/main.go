// Command scoris is the SCORIS-N program of the paper: intensive
// DNA-bank comparison with the ORIS algorithm, producing BLAST -m 8
// tabular output.
//
// Flags loosely mirror the blastall invocation of paper §3.3:
//
//	scoris -d bankA.fasta -i bankB.fasta -o result.m8 -e 0.001 -S 1
//
// Bank A (-d) is the subject/database bank, bank B (-i) the query bank.
// -i repeats: the database bank is loaded and indexed exactly once and
// the prepared index is reused for every query bank, so
//
//	scoris -d est_db.fasta -i run1.fasta -i run2.fasta -i run3.fasta
//
// costs one index build plus three comparisons, not three of each.
// -index-dir extends the amortization across processes: indexes are
// persisted to (and mmap-loaded from) the given directory, so a repeat
// invocation against the same banks performs zero index builds:
//
//	scoris -d est_db.fasta -i run1.fasta -index-dir .ixstore   # builds, saves
//	scoris -d est_db.fasta -i run2.fasta -index-dir .ixstore   # loads, 0 builds for the db
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	scoris "repro"
	"repro/internal/cliflag"
)

func main() {
	var qPaths cliflag.Multi
	var (
		dbPath    = flag.String("d", "", "subject bank FASTA (bank 1, required)")
		outPath   = flag.String("o", "", "output file (default stdout)")
		w         = flag.Int("W", 11, "seed length")
		evalue    = flag.Float64("e", 1e-3, "E-value cutoff")
		strand    = flag.Int("S", 1, "strand: 1 = single (paper mode), 3 = both")
		dust      = flag.Bool("F", true, "low-complexity filter")
		workers   = flag.Int("a", 0, "worker goroutines (0 = all cores)")
		asym      = flag.Bool("asymmetric", false, "10-nt half-word indexing of bank 1 (paper §3.4; forces W=10)")
		self      = flag.Bool("self", false, "self-comparison mode: -d and -i are the same bank; report the upper triangle only")
		match     = flag.Int("r", 1, "match reward")
		mismatch  = flag.Int("q", 3, "mismatch penalty")
		gapOpen   = flag.Int("G", 5, "gap open penalty")
		gapExt    = flag.Int("E", 2, "gap extend penalty")
		format    = flag.Int("m", 8, "output format: 8 = tabular (paper mode), 0 = full pairwise alignments")
		indexDir  = flag.String("index-dir", "", "directory for persistent on-disk bank indexes: indexes found there are loaded (mmap) instead of rebuilt — or suffix-extended when the bank has only been appended to — and fresh builds are written back, so repeated invocations against the same banks start warm")
		ixSave    = flag.String("index-save", "all", "store save policy: 'all' persists every built index, 'db' persists only the -d bank's (single-use query indexes never hit disk)")
		ixMinSave = flag.Int("index-min-save", 0, "decline persisting banks smaller than this many bases (0 = no floor; the -d bank is always persisted)")
		ixMaxMB   = flag.Int64("index-max-mb", 0, "garbage-collect the index store down to this many megabytes, oldest files first (0 = unbounded)")
		ixMaxAge  = flag.Duration("index-max-age", 0, "garbage-collect index files unused for longer than this duration, e.g. 720h (0 = no age bound)")
		ixProbe   = flag.String("index-probe", "", "print the named .orix index file's metadata (format version, bank identity, block directory) as key: value lines and exit; no comparison is run")
		verbose   = flag.Bool("v", false, "print per-step metrics to stderr")
	)
	flag.Var(&qPaths, "i", "query bank FASTA (bank 2; repeatable — the -d index is built once and reused)")
	flag.Parse()
	if *ixProbe != "" {
		fatal(probeIndexFile(os.Stdout, *ixProbe))
		return
	}
	if *dbPath == "" || (len(qPaths) == 0 && !*self) {
		fmt.Fprintln(os.Stderr, "usage: scoris -d bankA.fasta -i bankB.fasta [-i bankC.fasta ...] [flags]")
		fmt.Fprintln(os.Stderr, "       scoris -d genome.fasta -self [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// -self compares -d against itself; combining it with -i would
	// silently ignore the query banks, so a typo'd -self could pass for
	// the intended query run. Refuse the combination loudly instead.
	if *self && len(qPaths) > 0 {
		fmt.Fprintf(os.Stderr, "scoris: -self compares the -d bank against itself and takes no -i query banks (%d given); drop -self or the -i flags\n", len(qPaths))
		os.Exit(2)
	}

	// The display name doubles as the store's filename prefix (the
	// probe for append-aware reuse filters on it), so derive it from
	// the FASTA basename: distinct db banks sharing one -index-dir then
	// keep distinct file lineages instead of all piling up under one
	// generic name.
	bank1, err := scoris.LoadBank(filepath.Base(*dbPath), *dbPath)
	fatal(err)

	opt := scoris.DefaultOptions()
	opt.W = *w
	opt.MaxEValue = *evalue
	opt.Dust = *dust
	opt.Workers = *workers
	opt.Scoring.Match = *match
	opt.Scoring.Mismatch = *mismatch
	opt.Scoring.GapOpen = *gapOpen
	opt.Scoring.GapExtend = *gapExt
	if *asym {
		opt.W = 10
		opt.Asymmetric = true
	}
	if *strand == 3 {
		opt.Strand = scoris.BothStrands
	}
	opt.SkipSelfPairs = *self

	// Buffered, checked output: Finish (flush + close, both checked)
	// runs before the zero exit so a failed or short write — ENOSPC,
	// quota, a flush-at-close filesystem — exits non-zero instead of
	// leaving a silently truncated m8 file behind.
	out, err := cliflag.OpenOutput(*outPath)
	fatal(err)

	// The cache makes the persistent-db behavior explicit: bank 1's
	// index is built on the first pair and every later -i reuses it.
	// Bound 2 keeps exactly {db, current query} resident — each job's
	// Get order is db first, so the db entry is always most-recent of
	// the two and the previous query's single-use index is what evicts.
	cache := scoris.NewIndexCache(2)

	// -index-dir adds the cross-process tier: cache misses consult the
	// directory before building (exact match first, then append-aware
	// suffix extension of a stored prefix), and builds are written back,
	// so a second invocation against the same banks performs zero
	// builds. The policy/GC flags keep the store operable under
	// sustained traffic instead of growing without bound.
	var store *scoris.DirIndexStore
	if *indexDir != "" {
		var err error
		store, err = scoris.NewDirIndexStore(*indexDir)
		fatal(err)
		switch *ixSave {
		case "all":
			store.SetSavePolicy(scoris.IndexSavePolicy{MinBases: *ixMinSave})
		case "db":
			store.SetSavePolicy(scoris.IndexSavePolicy{DBOnly: true, MinBases: *ixMinSave})
		default:
			fatal(fmt.Errorf("invalid -index-save %q (use all or db)", *ixSave))
		}
		store.MarkDB(bank1) // the -d bank is the long-lived side
		store.SetGC(scoris.IndexGCConfig{MaxBytes: *ixMaxMB << 20, MaxAge: *ixMaxAge})
		cache.SetStore(store)
	}

	// Self mode compares the db bank against itself; -i is ignored
	// (SkipSelfPairs is only defined on one shared coordinate space).
	jobs := qPaths
	if *self {
		jobs = cliflag.Multi{*dbPath}
	}

	for _, qp := range jobs {
		bank2 := bank1
		if !*self {
			// Query banks load lazily, one job at a time, so peak memory
			// is O(db + one query bank) however many -i are given.
			bank2, err = scoris.LoadBank(filepath.Base(qp), qp)
			fatal(err)
		}
		t0 := time.Now()
		p1, p2, err := scoris.Prepare(cache, bank1, bank2, opt)
		fatal(err)
		prepTime := time.Since(t0)
		res, err := scoris.CompareWithIndex(p1, p2, opt)
		fatal(err)
		elapsed := time.Since(t0)
		writeResult(out.W, res, bank1, bank2, opt, *format)

		if *verbose {
			m := res.Metrics
			fmt.Fprintf(os.Stderr, "scoris: %s vs %s: %d alignments in %.2fs (db index cached: %d builds for %d lookups)\n",
				*dbPath, qp, len(res.Alignments), elapsed.Seconds(),
				cache.Builds(), cache.Lookups())
			// prepTime is this job's actual build cost (zero on a cache
			// hit); m.IndexTime adds any in-comparison build such as the
			// BothStrands reverse-complement index.
			fmt.Fprintf(os.Stderr, "  step1 index   %8.3fs (%d + %d positions)\n",
				(prepTime + m.IndexTime).Seconds(), m.IndexedBank1, m.IndexedBank2)
			fmt.Fprintf(os.Stderr, "  step2 ungapped%8.3fs (%d hit pairs, %d aborted, %d HSPs)\n",
				m.Step2Time.Seconds(), m.HitPairs, m.Aborted, m.HSPs)
			fmt.Fprintf(os.Stderr, "  step3 gapped  %8.3fs (%d extensions, %d covered)\n",
				m.Step3Time.Seconds(), m.GappedExtensions, m.SkippedCovered)
			fmt.Fprintf(os.Stderr, "  step4 output  %8.3fs\n", m.Step4Time.Seconds())
		}
	}

	// All jobs wrote; the results are complete only once they are
	// flushed and the file is closed, both checked — exit non-zero
	// otherwise.
	fatal(out.Finish())

	// The store summary is the cross-process contract line CI asserts
	// on: a warm invocation must report 0 builds, and an invocation
	// against an appended-to bank must report a suffix extension
	// instead of a rebuild.
	if store != nil {
		// Declined saves and write-back errors come from the store's
		// counters, not only the cache's: extension write-backs never
		// pass through the cache's save path.
		fmt.Fprintf(os.Stderr,
			"scoris: index store: %d builds, %d disk hits (%d suffix extensions), %d block loads, %d block appends, %d lookups, %d declined saves, %d store errors (%s)\n",
			cache.Builds(), cache.DiskHits(), store.Extends(), store.BlockLoads(), store.BlockAppends(),
			cache.Lookups(), store.SavesDeclined(), cache.DiskErrors()+store.WriteBackErrors(), *indexDir)
		// A final explicit collection so age caps apply even on runs
		// that saved nothing (the save-triggered GC only runs on
		// writes); the stats line is what CI's shrink assertion reads.
		if *ixMaxMB > 0 || *ixMaxAge > 0 {
			st, err := store.GC()
			fatal(err)
			fmt.Fprintf(os.Stderr, "scoris: index store gc: %s\n", st)
		}
	}
}

// probeIndexFile serves -index-probe: the stored file's metadata as
// stable key: value lines (CI's persistence job parses blocks and
// prefix_bytes to assert O(suffix) appends byte-for-byte).
func probeIndexFile(out io.Writer, path string) error {
	info, err := scoris.ProbeIndexFile(path)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "file: %s\n", path)
	fmt.Fprintf(out, "version: %d\n", info.Version)
	fmt.Fprintf(out, "sequences: %d\n", info.NumSeqs)
	fmt.Fprintf(out, "data_bytes: %d\n", info.DataLen)
	fmt.Fprintf(out, "bank_crc: %016x\n", info.BankCRC)
	fmt.Fprintf(out, "blocks: %d\n", len(info.Blocks))
	// prefix_bytes is the append-invariant boundary: every byte before
	// it survives an in-place append unchanged.
	fmt.Fprintf(out, "prefix_bytes: %d\n", info.PayloadEnd)
	fmt.Fprintf(out, "file_bytes: %d\n", fi.Size())
	for i, bl := range info.Blocks {
		fmt.Fprintf(out, "block[%d]: seqs [%d,%d) data [%d,%d) at %d len %d\n",
			i, bl.SeqLo, bl.SeqHi, bl.DataLo, bl.DataHi, bl.Offset, bl.Length)
	}
	return nil
}

func writeResult(out io.Writer, res *scoris.Result, bank1, bank2 *scoris.Bank, opt scoris.Options, format int) {
	switch format {
	case 8:
		fatal(scoris.WriteM8(out, res, bank1, bank2))
	case 0:
		fatal(scoris.WritePairwise(out, res, bank1, bank2, opt))
	default:
		fatal(fmt.Errorf("unsupported output format -m %d (use 8 or 0)", format))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoris:", err)
		os.Exit(1)
	}
}
