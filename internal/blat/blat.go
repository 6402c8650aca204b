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
// Extension, statistics and output share the same substrates as the
// other two engines, so cross-engine differences reflect search
// strategy only.
package blat

import (
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/gapped"
	"repro/internal/hsp"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
	"repro/internal/stats"
)

// Options configures the engine. Defaults mirror the other engines
// where meaningful (BLAT's own default tile size is also 11 for DNA).
type Options struct {
	// W is the tile size.
	W int
	// Scoring holds match/mismatch/gap parameters.
	Scoring stats.Scoring
	// UngappedXDrop and GappedXDrop are the X-drop thresholds.
	UngappedXDrop int32
	GappedXDrop   int32
	// MinUngappedScore gates HSPs into the gapped stage.
	MinUngappedScore int32
	// MaxEValue is the report threshold.
	MaxEValue float64
	// Dust masks low-complexity query words.
	Dust bool
}

// DefaultOptions mirrors the repository-wide engine defaults.
func DefaultOptions() Options {
	return Options{
		W:                11,
		Scoring:          stats.DefaultScoring,
		UngappedXDrop:    20,
		GappedXDrop:      25,
		MinUngappedScore: 22,
		MaxEValue:        1e-3,
		Dust:             true,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.W < 4 || o.W > seed.MaxW {
		return fmt.Errorf("blat: W=%d out of range [4,%d]", o.W, seed.MaxW)
	}
	if err := o.Scoring.Validate(); err != nil {
		return err
	}
	if o.UngappedXDrop <= 0 || o.GappedXDrop <= 0 || o.UngappedXDrop > stats.MaxParam || o.GappedXDrop > stats.MaxParam {
		return fmt.Errorf("blat: X-drop thresholds must be in [1,%d]", stats.MaxParam)
	}
	if o.MaxEValue <= 0 {
		return fmt.Errorf("blat: MaxEValue must be positive")
	}
	return nil
}

// Metrics counts engine work.
type Metrics struct {
	IndexTime time.Duration
	ScanTime  time.Duration
	GapTime   time.Duration

	// TilesIndexed is the database tile count (≈ N/W).
	TilesIndexed int
	// QueryPositions is the number of query windows probed.
	QueryPositions int64
	TileHits       int64
	SkippedByDiag  int64
	Extensions     int64
	HSPs           int
	GappedExts     int
	SkippedCovered int
	Alignments     int
}

// Result bundles alignments and metrics.
type Result struct {
	Alignments []align.Alignment
	Metrics    Metrics
}

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
	p := ixcache.Prepare(db, opt.IndexOptions())
	indexTime := time.Since(t0)
	res, err := compareWithIndex(p.Bank, p.Ix, queries, opt)
	if err != nil {
		return nil, err
	}
	res.Metrics.IndexTime += indexTime
	return res, nil
}

// CompareWithIndex runs the search against a prepared database tile
// index, skipping the build (Metrics.IndexTime stays zero). The
// prepared value must match opt's IndexOptions exactly — tile size and
// non-overlapping sampling — or an error is returned (the ixcache reuse
// contract: an index is valid only for the exact (bank, Options) it was
// built from).
func CompareWithIndex(pdb *ixcache.Prepared, queries *bank.Bank, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if !pdb.MatchesOptions(opt.IndexOptions()) {
		return nil, fmt.Errorf("blat: prepared db does not match options (want W=%d non-overlapping tiles)", opt.W)
	}
	return compareWithIndex(pdb.Bank, pdb.Ix, queries, opt)
}

// tileProbe is the per-window probe state of one query scan: the
// stable pieces (index, extender, diagonal map) are set once per
// search, the per-query fields before each ForEach walk. Extracting
// the callback into a method keeps the per-element path in one named,
// hotpath-checked function instead of a closure rebuilt per query.
type tileProbe struct {
	ix       *index.Index
	ext      *hsp.Extender
	met      *Metrics
	d1, d2   []byte
	w        int32
	minScore int32

	// per-query state, reset before each scan
	maskPfx []int32
	qLo     int32
	// diagEnd maps a diagonal (db position − query offset) to the db end
	// of the last extension on it: sized by the query's hits, never by
	// the db. A diagonal not yet extended reads 0, which no position is
	// below.
	diagEnd map[int32]int32
	hsps    []hsp.HSP
}

// probe handles one query window: dust test, then a flat walk of the
// tile's contiguous CSR occurrence slice — sequential reads, no
// pointer-chasing chain walk — extending only windows that beat the
// per-diagonal high-water mark.
//
//scorislint:hotpath
func (tp *tileProbe) probe(rel int32, c seed.Code) {
	tp.met.QueryPositions++
	if tp.maskPfx != nil && tp.maskPfx[rel+tp.w] != tp.maskPfx[rel] {
		return
	}
	qPos := tp.qLo + rel
	for _, p := range tp.ix.Occ(c) {
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

// compareWithIndex is the engine body on a prebuilt tile index.
func compareWithIndex(db *bank.Bank, ix *index.Index, queries *bank.Bank, opt Options) (*Result, error) {
	ka, err := stats.Ungapped(opt.Scoring.Match, opt.Scoring.Mismatch)
	if err != nil {
		return nil, err
	}
	var met Metrics
	met.TilesIndexed = ix.Indexed
	var t0 time.Time

	var masker *dust.Masker
	if opt.Dust {
		masker = dust.New(0, 0)
	}

	ext := hsp.Extender{
		W:        opt.W,
		Match:    int32(opt.Scoring.Match),
		Mismatch: int32(opt.Scoring.Mismatch),
		XDrop:    opt.UngappedXDrop,
		Ordered:  false,
	}
	gapExt := gapped.Get(gapped.FromScoring(opt.Scoring, opt.GappedXDrop))
	defer gapped.Put(gapExt)

	d1, d2 := db.Data, queries.Data
	var all []align.Alignment
	w := int32(opt.W)

	tp := &tileProbe{
		ix:       ix,
		ext:      &ext,
		met:      &met,
		d1:       d1,
		d2:       d2,
		w:        w,
		minScore: opt.MinUngappedScore,
		diagEnd:  map[int32]int32{},
	}

	for qi := 0; qi < queries.NumSeqs(); qi++ {
		qLo, qHi := queries.SeqBounds(qi)
		if qHi-qLo < w {
			continue
		}
		// maskPfx[i] counts masked query positions before i, making the
		// per-window dust test one subtraction instead of a W-bit scan.
		var maskPfx []int32
		if masker != nil {
			maskPfx = masker.MaskPrefix(queries.Data[qLo:qHi])
		}

		// ---- scan the query against the tile index ----
		t0 = time.Now()
		tp.maskPfx = maskPfx
		tp.qLo = qLo
		clear(tp.diagEnd)
		tp.hsps = tp.hsps[:0]
		seed.ForEach(queries.Data[qLo:qHi], opt.W, tp.probe)
		hsps := tp.hsps
		met.ScanTime += time.Since(t0)

		// ---- gapped stage (shared shape with the other engines) ----
		t0 = time.Now()
		hsp.SortByDiag(hsps)
		met.HSPs += len(hsps)
		var ta align.TAlign
		for _, h := range hsps {
			if ta.Covered(h) {
				met.SkippedCovered++
				continue
			}
			met.GappedExts++
			m1, m2 := h.Mid()
			s1 := db.SeqAt(m1)
			lo1, hi1 := db.SeqBounds(int(s1))
			left := gapExt.ExtendLeft(d1, d2, m1, lo1, m2, qLo)
			right := gapExt.ExtendRight(d1, d2, m1, hi1, m2, qHi)
			r := left.Add(right)
			if r.AlignLen() == 0 {
				continue
			}
			ta.Add(align.Alignment{
				Seq1: s1, Seq2: int32(qi),
				S1: m1 - left.Len1, E1: m1 + right.Len1,
				S2: m2 - left.Len2, E2: m2 + right.Len2,
				Score:      r.Score,
				Matches:    r.Matches,
				Mismatches: r.Mismatches,
				GapOpens:   r.GapOpens,
				GapBases:   r.GapBases(),
				Length:     r.AlignLen(),
				Anchor1:    m1,
				Anchor2:    m2,
			})
		}
		all = append(all, ta.All()...)
		met.GapTime += time.Since(t0)
	}

	// ---- statistics, dedup, sort ----
	t0 = time.Now()
	m := db.TotalBases()
	deduped := align.Dedup(all)
	out := deduped[:0]
	for i := range deduped {
		a := deduped[i]
		n := queries.SeqLen(int(a.Seq2))
		a.EValue = ka.EValue(int(a.Score), m, n)
		a.BitScore = ka.BitScore(int(a.Score))
		if a.EValue <= opt.MaxEValue {
			out = append(out, a)
		}
	}
	align.SortForDisplay(out)
	met.Alignments = len(out)
	met.GapTime += time.Since(t0)
	return &Result{Alignments: out, Metrics: met}, nil
}
