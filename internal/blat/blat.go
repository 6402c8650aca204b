// Package blat implements a BLAT-style comparison engine (Kent, Genome
// Research 2002), the first of the "other programs … which also handle
// sequence indexing into main memory" the paper lists as comparison
// targets for future work (§4: "Comparing SCORIS-N with other programs
// (BLAT, FLASH, BLASTZ)").
//
// Structurally BLAT is the mirror image of classic BLASTN: the
// *database* is indexed once with NON-OVERLAPPING W-mer tiles (so the
// index is W× smaller than ORIS's all-positions index), and each query
// is scanned once at every position against that index. Bank-vs-bank
// cost is therefore one pass over the total query bases instead of one
// database scan per query — fast like ORIS, but with BLAT's
// characteristic sensitivity limit: only matches of length ≥ 2W−1 are
// guaranteed to contain an aligned tile, so shorter or fragmented
// matches can be missed. The three-way experiment in the harness
// (experiments.ThreeWay) shows exactly this trade-off.
//
// Steps 3–4 — gapped extension, dedup, statistics, display order — are
// align.Run, the code the other two engines run, so a cross-engine
// difference is a difference in search strategy by construction. Like
// ORIS the engine streams one query sequence at a time
// (CompareStreamWithIndex); Compare and CompareWithIndex collect that
// stream.
package blat

import (
	"context"
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/seed"
)

// Options configures the engine: the parameters the three engines
// share. W is the tile size (BLAT's own default for DNA is also 11);
// Dust masks low-complexity query words.
type Options struct {
	align.Params
}

// DefaultOptions mirrors the repository-wide engine defaults.
func DefaultOptions() Options { return Options{Params: align.DefaultParams()} }

// Validate checks option consistency.
func (o *Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("blat: %w", err)
	}
	return nil
}

// Metrics counts engine work.
type Metrics struct {
	IndexTime time.Duration
	ScanTime  time.Duration
	// Stats are the step 3–4 clocks and counters.
	align.Stats

	// TilesIndexed is the database tile count (≈ N/W).
	TilesIndexed int
	// QueryPositions is the number of query windows probed.
	QueryPositions int64
	TileHits       int64
	SkippedByDiag  int64
	Extensions     int64
	HSPs           int
	// WindowsProven counts the stored windows the probe proved before
	// extending from them (index.Part.ProvenOcc); 0 on a built index.
	WindowsProven int64
}

// Result bundles alignments and metrics.
type Result = align.Result[Metrics]

// IndexOptions reports the index.Options of the non-overlapping tile
// index Compare derives from o for the database bank — what a prepared
// index must have been built with to be valid for CompareWithIndex.
func (o Options) IndexOptions() index.Options {
	return index.Options{W: o.W, SampleStep: o.W}
}

// Compare searches every query sequence against the tile-indexed db
// bank, building the tile index in place. Conventions match the other
// engines: db is "bank 1"/subject, E-values use m = db residues,
// n = query length. Callers searching many query banks against one db
// should build the tile index once (ixcache) and use CompareWithIndex.
func Compare(db, queries *bank.Bank, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	ix := index.Build(db, opt.IndexOptions())
	indexTime := time.Since(t0)
	res, err := CompareWithIndex(ix, queries, opt)
	if err != nil {
		return nil, err
	}
	res.Metrics.IndexTime += indexTime
	return res, nil
}

// CompareWithIndex runs the search against a prepared database tile
// index and the bank it holds, skipping the build (Metrics.IndexTime
// stays zero): the collected form of CompareStreamWithIndex.
func CompareWithIndex(ix *index.Index, queries *bank.Bank, opt Options) (*Result, error) {
	return align.Collect(func(emit align.Emit) (*Result, error) {
		return CompareStreamWithIndex(context.Background(), ix, queries, opt, emit)
	})
}

// tileProbe is the per-window probe state of one query scan: the
// stable pieces (index, extender, diagonal map) are set once per
// search, the per-query fields before each ForEach walk. Extracting
// the callback into a method keeps the per-element path in one named,
// hotpath-checked function instead of a closure rebuilt per query.
type tileProbe struct {
	parts    []index.Part
	ext      *hsp.Extender
	met      *Metrics
	d1, d2   []byte
	w        int
	minScore int32

	// per-query state, reset before each scan
	mask dust.Windows
	qLo  int32
	// diagEnd maps a diagonal (db position − query offset) to the db end
	// of the last extension on it: sized by the query's hits, never by
	// the db. A diagonal not yet extended reads 0, which no position is
	// below.
	diagEnd map[int32]int32
	hsps    []hsp.HSP
	// err is the failed window proof that ends the search.
	err error
}

// probe handles one query window: dust test, then a flat walk of the
// tile's contiguous CSR occurrence slice in each part of the index —
// sequential reads, no pointer-chasing chain walk — extending only
// windows that beat the per-diagonal high-water mark. On a loaded index
// the tile's windows are proven before the first extension from them; a
// failed proof stops the probe for good.
//
//scorislint:hotpath
func (tp *tileProbe) probe(rel int32, c seed.Code) {
	tp.met.QueryPositions++
	if tp.err != nil || tp.mask.Masked(int(rel), tp.w) {
		return
	}
	qPos := tp.qLo + rel
	// Part by part in block order: the tile's positions still ascend.
	for i := range tp.parts {
		occ, proven, err := tp.parts[i].ProvenOcc(c)
		if err != nil {
			tp.err = err
			return
		}
		tp.met.WindowsProven += int64(proven)
		for _, p := range occ {
			tp.met.TileHits++
			diag := p - rel
			if tp.diagEnd[diag] > p {
				tp.met.SkippedByDiag++
				continue
			}
			tp.met.Extensions++
			h, _ := tp.ext.Extend(tp.d1, tp.d2, p, qPos, c, nil)
			tp.diagEnd[diag] = h.E1
			if h.Score >= tp.minScore {
				tp.hsps = append(tp.hsps, h)
			}
		}
	}
}

// CompareStreamWithIndex searches every query sequence against a
// prepared database tile index, over the bank it holds, and delivers
// each one's alignments through emit the moment they are final, under
// align.Emit's contract. The index must have been built with opt's
// IndexOptions — tile size and non-overlapping sampling — or an error
// is returned (the ixcache reuse contract: an index is valid only for
// the exact (bank, index.Key) it was built from). ctx is checked
// between query sequences.
func CompareStreamWithIndex(ctx context.Context, ix *index.Index, queries *bank.Bank, opt Options, emit align.Emit) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if ix == nil || ix.Options().Key() != opt.IndexOptions().Key() {
		return nil, fmt.Errorf("blat: db index does not match options (want W=%d non-overlapping tiles)", opt.W)
	}
	db := ix.Bank
	var met Metrics
	met.TilesIndexed = ix.Indexed
	ext := opt.Ungapped(false)
	tp := &tileProbe{
		parts:    ix.Parts(),
		ext:      &ext,
		met:      &met,
		d1:       db.Data,
		d2:       queries.Data,
		w:        opt.W,
		minScore: opt.MinUngappedScore,
		diagEnd:  map[int32]int32{},
	}
	// The source reuses tp from query to query: Run calls it in bank
	// order from this goroutine.
	err := opt.Run(ctx, db, queries, nil, &met.Stats, func(qi int) ([]hsp.HSP, []hsp.HSP, error) {
		qLo, qHi := queries.SeqBounds(qi)
		tp.mask = dust.Scan(queries.Data[qLo:qHi], opt.Dust)
		t0 := time.Now()
		tp.qLo = qLo
		clear(tp.diagEnd)
		tp.hsps = tp.hsps[:0]
		seed.ForEach(queries.Data[qLo:qHi], opt.W, tp.probe)
		met.HSPs += len(tp.hsps)
		met.ScanTime += time.Since(t0)
		return tp.hsps, nil, tp.err
	}, emit)
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: met}, nil
}
