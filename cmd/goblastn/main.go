// Command goblastn is the BLASTN-style baseline of the reproduction: a
// per-query scan of the subject bank in the style of 2007-era blastall,
// with -m 8 tabular output. It exists so the paper's speed-up and
// sensitivity tables can be regenerated against a comparator written in
// the same language and sharing the same extension/statistics
// substrates (DESIGN.md §3).
//
//	goblastn -d bankA.fasta -i bankB.fasta -o result.m8 -e 0.001 -S 1
//
// -i repeats: the database bank is loaded once and searched by every
// query bank in turn.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	scoris "repro"
	"repro/internal/cliflag"
)

func main() {
	var qPaths cliflag.Multi
	var (
		dbPath   = flag.String("d", "", "subject/database bank FASTA (required)")
		outPath  = flag.String("o", "", "output file (default stdout)")
		w        = flag.Int("W", 11, "word size")
		evalue   = flag.Float64("e", 1e-3, "E-value cutoff")
		strand   = flag.Int("S", 1, "strand: 1 = single, 3 = both")
		dust     = flag.Bool("F", true, "low-complexity filter (dust)")
		match    = flag.Int("r", 1, "match reward")
		mismatch = flag.Int("q", 3, "mismatch penalty")
		gapOpen  = flag.Int("G", 5, "gap open penalty")
		gapExt   = flag.Int("E", 2, "gap extend penalty")
		scanWord = flag.Int("scanword", 8, "probe word size for the db scan (classic BLASTN: 8)")
		stride   = flag.Int("stride", 4, "db scan stride (classic BLASTN: 4, the packed-byte boundary)")
		verbose  = flag.Bool("v", false, "print scan metrics to stderr")
	)
	flag.Var(&qPaths, "i", "query bank FASTA (repeatable — the db bank is loaded once)")
	flag.Parse()
	if *dbPath == "" || len(qPaths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: goblastn -d bankA.fasta -i bankB.fasta [-i bankC.fasta ...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	db, err := scoris.LoadBank("db", *dbPath)
	fatal(err)

	opt := scoris.DefaultBlastnOptions()
	opt.W = *w
	opt.MaxEValue = *evalue
	opt.Dust = *dust
	opt.BothStrands = *strand == 3
	opt.Scoring.Match = *match
	opt.Scoring.Mismatch = *mismatch
	opt.Scoring.GapOpen = *gapOpen
	opt.Scoring.GapExtend = *gapExt
	opt.ScanWord = *scanWord
	opt.ScanStride = *stride
	fatal(opt.Validate())

	// Buffered, checked output (see cliflag.Output): the flush and
	// close are verified before the zero exit, so a failed write can
	// never leave a silently truncated m8 file behind an exit 0.
	out, err := cliflag.OpenOutput(*outPath)
	fatal(err)

	for i, qp := range qPaths {
		queries, err := scoris.LoadBank(fmt.Sprintf("queries.%d", i+1), qp)
		fatal(err)
		t0 := time.Now()
		res, err := scoris.CompareBlastn(db, queries, opt)
		fatal(err)
		elapsed := time.Since(t0)
		fatal(scoris.WriteBlastnM8(out.W, res, db, queries))

		if *verbose {
			m := res.Metrics
			fmt.Fprintf(os.Stderr, "goblastn: %s: %d queries, %d alignments in %.2fs\n",
				qp, m.Queries, len(res.Alignments), elapsed.Seconds())
			fmt.Fprintf(os.Stderr, "  scanned %d positions, %d word hits, %d skipped by diagonal\n",
				m.ScannedPositions, m.WordHits, m.SkippedByDiag)
			fmt.Fprintf(os.Stderr, "  %d ungapped extensions, %d HSPs, %d gapped extensions\n",
				m.Extensions, m.HSPs, m.GappedExtensions)
		}
	}
	fatal(out.Finish())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "goblastn:", err)
		os.Exit(1)
	}
}
