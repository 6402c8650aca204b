// Package blastn is a from-scratch Go implementation of the classic
// (2007-era, pre-indexed-megablast) NCBI BLASTN search strategy, used as
// the baseline the paper compares against (§3: NCBI BLAST 2.2.17,
// blastall -p blastn).
//
// The defining structural property — and the reason ORIS wins on
// bank-vs-bank workloads — is that BLASTN processes queries one at a
// time: for each query sequence it builds a word lookup table and then
// scans the ENTIRE subject bank, so a J-query bank costs J full scans.
// Heuristics reproduced from the original:
//
//   - contiguous W-mer lookup (one-hit triggering, the classic BLASTN
//     mode with W=11);
//   - a per-diagonal "last extended position" array so hits inside an
//     already-extended region are skipped cheaply;
//   - ungapped X-drop extension, score-thresholded HSPs, then gapped
//     X-drop extension (shared packages hsp, gapped);
//   - Karlin–Altschul E-values with the same m·n convention as
//     SCORIS-N, so sensitivity comparisons reflect search strategy, not
//     statistics.
//
// Lookup tables and diagonal arrays are generation-stamped so per-query
// setup is O(query length), not O(4^W) — the real BLAST does the same.
// That stamping also makes the whole engine reusable across query
// banks: Session holds one database bank plus the engine arrays so
// multi-query-bank workloads pay the O(len(db)) allocations once, the
// baseline's analog of the prepared-index sessions in core and blat.
package blastn

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/gapped"
	"repro/internal/hsp"
	"repro/internal/seed"
	"repro/internal/stats"
)

// Options configures the baseline. Defaults mirror core.DefaultOptions
// so engine comparisons are apples-to-apples.
type Options struct {
	// W is the word size (BLASTN default 11).
	W int
	// Scoring holds match/mismatch/gap parameters.
	Scoring stats.Scoring
	// UngappedXDrop and GappedXDrop are the X-drop thresholds.
	UngappedXDrop int32
	GappedXDrop   int32
	// MinUngappedScore gates HSPs into the gapped stage.
	MinUngappedScore int32
	// MaxEValue is the report threshold (-e).
	MaxEValue float64
	// Dust masks low-complexity words out of the query lookup table,
	// as -F T does.
	Dust bool
	// BothStrands searches the reverse complement of each query too
	// (-S 3); the paper benchmarks single-strand (-S 1).
	BothStrands bool
	// ScanWord and ScanStride reproduce the classic BLASTN scanning
	// strategy on the packed database: the query lookup table holds
	// ScanWord-mers (8 by default) and the subject is probed every
	// ScanStride positions (4 by default, the ncbi2na byte boundary).
	// Any W-mer match contains an aligned ScanWord-mer starting at one
	// of ScanStride consecutive offsets, so no W-mer hit is lost; each
	// probe hit is verified by growing the exact-match run to ≥ W
	// before triggering an extension, as NCBI's mini-extension does.
	// ScanStride=1 with ScanWord=W degenerates to a plain full scan.
	ScanWord   int
	ScanStride int
}

// DefaultOptions mirrors the paper's blastall invocation:
// -p blastn -e 0.001 -S 1 with stock W=11 scoring.
func DefaultOptions() Options {
	return Options{
		W:                11,
		Scoring:          stats.DefaultScoring,
		UngappedXDrop:    20,
		GappedXDrop:      25,
		MinUngappedScore: 22,
		MaxEValue:        1e-3,
		Dust:             true,
		ScanWord:         8,
		ScanStride:       4,
	}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if o.W < 4 || o.W > seed.MaxW {
		return fmt.Errorf("blastn: W=%d out of range [4,%d]", o.W, seed.MaxW)
	}
	if err := o.Scoring.Validate(); err != nil {
		return err
	}
	if o.UngappedXDrop <= 0 || o.GappedXDrop <= 0 || o.UngappedXDrop > stats.MaxParam || o.GappedXDrop > stats.MaxParam {
		return fmt.Errorf("blastn: X-drop thresholds must be in [1,%d]", stats.MaxParam)
	}
	if o.MaxEValue <= 0 {
		return fmt.Errorf("blastn: MaxEValue must be positive")
	}
	sw, stride := o.scanParams()
	if sw < 4 || sw > o.W {
		return fmt.Errorf("blastn: ScanWord=%d out of range [4,W=%d]", sw, o.W)
	}
	if stride < 1 || stride > o.W-sw+1 {
		return fmt.Errorf("blastn: ScanStride=%d out of range [1,%d] (would miss W-mer hits)",
			stride, o.W-sw+1)
	}
	return nil
}

// scanParams resolves the scan word/stride, defaulting to a plain full
// scan when unset so zero-filled Options behave predictably.
func (o *Options) scanParams() (scanWord, stride int) {
	scanWord, stride = o.ScanWord, o.ScanStride
	if scanWord == 0 {
		scanWord = o.W
	}
	if stride == 0 {
		stride = 1
	}
	return scanWord, stride
}

// Metrics counts baseline work for the experiment harness.
type Metrics struct {
	SetupTime time.Duration
	ScanTime  time.Duration
	GapTime   time.Duration

	Queries          int
	ScannedPositions int64
	WordHits         int64
	SkippedByDiag    int64
	VerifyFailed     int64
	Extensions       int64
	HSPs             int
	GappedExtensions int
	SkippedCovered   int
	Alignments       int
}

// Result bundles alignments with metrics.
type Result struct {
	Alignments []align.Alignment
	Metrics    Metrics
}

// engine holds the per-search state reused across queries.
type engine struct {
	opt Options
	db  *bank.Bank

	// query word table, generation stamped.
	gen     []int32
	head    []int32
	nextPos []int32 // per query position
	curGen  int32
	// present is a 1-bit-per-code bitmap over the ScanWord code space
	// (8 KB for 8-mers), cleared per query. The overwhelming majority
	// of scan probes miss, and this L1-resident test is what lets the
	// real BLASTN stream through gigabases — reproduced here so the
	// baseline's scan constant is honest.
	present []uint64

	// per-diagonal last extended end (db axis), generation stamped.
	diagEnd   []int32
	diagStamp []int32

	ext    hsp.Extender
	gapExt *gapped.Extender
	ka     stats.KarlinAltschul
	masker *dust.Masker
}

// Session is the prepared-bank form of the baseline: a database bank
// paired with the reusable per-search engine state (word-table and
// diagonal arrays, extenders, statistics). BLASTN has no bank index to
// persist — its db-side cost is the scan itself — but the
// O(len(db.Data)) diagonal arrays and the O(4^ScanWord) lookup arrays
// are allocated once here and reused for every query bank, the analog
// of core/blat index reuse for this engine.
//
// A Session is NOT safe for concurrent use: the generation-stamped
// arrays are mutated per query. Compare enforces this with an atomic
// in-use guard that panics on concurrent entry — corrupting the
// generation stamps silently (wrong alignments) is strictly worse than
// a loud crash naming the misuse. Callers that serve many goroutines
// should hold one Session per goroutine, or a checkout pool handing
// each Session to one goroutine at a time (internal/server does this).
// A Session is valid only for the (db, Options) it was created with;
// create one session per database bank.
type Session struct {
	eng *engine // sole owner of the db, options, and reusable arrays

	// inUse is the concurrency guard: set for the duration of Compare
	// with a compare-and-swap, so overlapped calls are detected at
	// entry instead of corrupting the engine arrays mid-scan.
	inUse atomic.Bool
}

// NewSession validates opt and allocates the reusable engine state for
// searches against db.
func NewSession(db *bank.Bank, opt Options) (*Session, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	eng, err := newEngine(db, opt)
	if err != nil {
		return nil, err
	}
	return &Session{eng: eng}, nil
}

// DB returns the session's database bank.
func (s *Session) DB() *bank.Bank { return s.eng.db }

// Compare searches every sequence of queries against the session's db
// bank, one query at a time, and returns the merged alignment list
// sorted for display. db plays the paper's "bank 1" (subject) role.
func (s *Session) Compare(queries *bank.Bank) (*Result, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		panic("blastn: Session.Compare called concurrently: a Session is NOT safe for concurrent use " +
			"(its generation-stamped engine arrays are mutated per query); " +
			"give each goroutine its own Session or serialize access with a checkout pool")
	}
	defer s.inUse.Store(false)
	opt := s.eng.opt
	res, err := s.compareStrand(queries)
	if err != nil {
		return nil, err
	}
	if opt.BothStrands {
		rc := queries.ReverseComplement()
		rcRes, err := s.compareStrand(rc)
		if err != nil {
			return nil, err
		}
		for i := range rcRes.Alignments {
			a := &rcRes.Alignments[i]
			_, hi := rc.SeqBounds(int(a.Seq2))
			oLo, _ := queries.SeqBounds(int(a.Seq2))
			s := oLo + (hi - a.E2)
			e := oLo + (hi - a.S2)
			a.S2, a.E2 = s, e
			// The anchor refers to the discarded reverse-complement bank;
			// clear it so render reports "no anchor" instead of garbage.
			a.Anchor1, a.Anchor2 = 0, 0
			a.Minus = true
		}
		res.Alignments = append(res.Alignments, rcRes.Alignments...)
		mergeMetrics(&res.Metrics, &rcRes.Metrics)
		align.SortForDisplay(res.Alignments)
	}
	return res, nil
}

func mergeMetrics(m, o *Metrics) {
	m.SetupTime += o.SetupTime
	m.ScanTime += o.ScanTime
	m.GapTime += o.GapTime
	m.Queries += o.Queries
	m.ScannedPositions += o.ScannedPositions
	m.WordHits += o.WordHits
	m.SkippedByDiag += o.SkippedByDiag
	m.VerifyFailed += o.VerifyFailed
	m.Extensions += o.Extensions
	m.HSPs += o.HSPs
	m.GappedExtensions += o.GappedExtensions
	m.SkippedCovered += o.SkippedCovered
	m.Alignments += o.Alignments
}

// Compare searches queries against db with a one-shot Session — the
// thin wrapper kept for single-pair callers. Workloads that search
// several query banks against the same db should hold one Session so
// the db-sized engine arrays are allocated once.
func Compare(db, queries *bank.Bank, opt Options) (*Result, error) {
	s, err := NewSession(db, opt)
	if err != nil {
		return nil, err
	}
	return s.Compare(queries)
}

// newEngine allocates the query-independent engine state; the arrays
// sized by the longest query grow on demand in grow.
func newEngine(db *bank.Bank, opt Options) (*engine, error) {
	ka, err := stats.Ungapped(opt.Scoring.Match, opt.Scoring.Mismatch)
	if err != nil {
		return nil, err
	}
	scanWord, _ := opt.scanParams()
	nCodes := seed.NumCodes(scanWord)
	e := &engine{
		opt:     opt,
		db:      db,
		gen:     make([]int32, nCodes),
		head:    make([]int32, nCodes),
		present: make([]uint64, (nCodes+63)/64),
		ext: hsp.Extender{
			W:        opt.W,
			Match:    int32(opt.Scoring.Match),
			Mismatch: int32(opt.Scoring.Mismatch),
			XDrop:    opt.UngappedXDrop,
			Ordered:  false, // BLAST has no ordered-seed rule
		},
		gapExt: gapped.NewExtender(gapped.FromScoring(opt.Scoring, opt.GappedXDrop)),
		ka:     ka,
	}
	if opt.Dust {
		e.masker = dust.New(0, 0)
	}
	return e, nil
}

// grow sizes the query-length-dependent arrays for a bank whose longest
// sequence is maxQ bases. Enlarged arrays arrive zeroed, which the
// generation stamps read as "never touched" (curGen only moves upward
// from 1), so reuse across query banks cannot leak diagonal state.
func (e *engine) grow(maxQ int) {
	if len(e.nextPos) < maxQ+1 {
		e.nextPos = make([]int32, maxQ+1)
	}
	if need := len(e.db.Data) + maxQ + 1; len(e.diagEnd) < need {
		e.diagEnd = make([]int32, need)
		e.diagStamp = make([]int32, need)
	}
}

func (s *Session) compareStrand(queries *bank.Bank) (*Result, error) {
	e := s.eng
	opt := e.opt
	t0 := time.Now()
	maxQ := 0
	for i := 0; i < queries.NumSeqs(); i++ {
		if l := queries.SeqLen(i); l > maxQ {
			maxQ = l
		}
	}
	e.grow(maxQ)
	var met Metrics
	met.SetupTime = time.Since(t0)

	var all []align.Alignment
	for qi := 0; qi < queries.NumSeqs(); qi++ {
		if queries.SeqLen(qi) < opt.W {
			continue
		}
		met.Queries++
		as := e.searchQuery(queries, qi, &met)
		all = append(all, as...)
	}

	t0 = time.Now()
	m := e.db.TotalBases()
	ka := e.ka
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

// searchQuery runs the classic pipeline for one query sequence.
func (e *engine) searchQuery(queries *bank.Bank, qi int, met *Metrics) []align.Alignment {
	opt := e.opt
	qLo, qHi := queries.SeqBounds(qi)
	qLen := qHi - qLo

	// ---- build the query word table over ScanWord-mers ----
	t0 := time.Now()
	e.curGen++
	gen := e.curGen
	var maskBits []bool
	if e.masker != nil {
		maskBits = e.masker.MaskBits(queries.Data[qLo:qHi])
	}
	scanWord, stride := opt.scanParams()
	sw := int32(scanWord)
	for i := range e.present {
		e.present[i] = 0
	}
	seed.ForEach(queries.Data[qLo:qHi], scanWord, func(rel int32, c seed.Code) {
		if maskBits != nil {
			for q := rel; q < rel+sw; q++ {
				if maskBits[q] {
					return
				}
			}
		}
		if e.gen[c] != gen {
			e.gen[c] = gen
			e.head[c] = -1
		}
		// Prepend; query word chains don't need position order.
		e.nextPos[rel] = e.head[c]
		e.head[c] = rel
		e.present[c>>6] |= 1 << (c & 63)
	})
	met.SetupTime += time.Since(t0)

	// ---- scan the whole subject bank ----
	// The scan is the dominant cost of the whole baseline (J queries ×
	// full bank). Like 2007 BLASTN on the 2-bit-packed database, the
	// subject is probed every `stride` positions with a ScanWord-mer
	// lookup; every probe hit is then verified by growing the exact
	// match to ≥ W before an extension is triggered.
	t0 = time.Now()
	var hsps []hsp.HSP
	d1, d2 := e.db.Data, queries.Data
	db := e.db
	w := int32(opt.W)
	diagOff := qLen // diag = dbPos - qRel + qLen ∈ [0, len(db.Data)+qLen]
	var (
		scanned  int64
		hits     int64
		skips    int64
		failed   int64
		extCount int64
	)
	{
		data := db.Data
		n := len(data)
		topShift := 2 * uint(scanWord-stride)
		dropShift := 2 * uint(stride)
		var c seed.Code
		valid := false
		present := e.present
		// The loop advances by the stride directly, rolling the code
		// forward by `stride` bases per step, and consults the 1-bit
		// presence table first; only present codes (a percent or so on
		// unrelated sequence) touch the chain arrays. This mirrors the
		// byte-boundary scan of the packed-database BLASTN.
		for i := 0; i+scanWord <= n; i += stride {
			if valid {
				var top seed.Code
				ok := true
				for k := 0; k < stride; k++ {
					b := data[i+scanWord-stride+k]
					if b >= 4 {
						ok = false
						break
					}
					top |= seed.Code(b) << (2 * uint(k))
				}
				if !ok {
					valid = false
					continue
				}
				c = (c >> dropShift) | top<<topShift
			} else {
				var nc seed.Code
				ok := true
				for k := scanWord - 1; k >= 0; k-- {
					b := data[i+k]
					if b >= 4 {
						ok = false
						break
					}
					nc = nc<<2 | seed.Code(b)
				}
				if !ok {
					continue
				}
				c = nc
				valid = true
			}
			scanned++
			if present[c>>6]>>(c&63)&1 == 0 {
				continue
			}
			dbPos := int32(i)
			for rel := e.head[c]; rel >= 0; rel = e.nextPos[rel] {
				hits++
				diag := dbPos - rel + diagOff
				if e.diagStamp[diag] == gen && e.diagEnd[diag] > dbPos {
					skips++
					continue
				}
				qPos := qLo + rel
				// Verify: grow the exact-match run around the probe to
				// the full word size W (NCBI's mini-extension). Like
				// hsp.Extend it needs no record bounds: the sentinel on
				// either side of a record is not a base.
				l1, l2 := dbPos, qPos
				for d1[l1-1] == d2[l2-1] && d1[l1-1] < 4 {
					l1--
					l2--
				}
				r1, r2 := dbPos+sw, qPos+sw
				for d1[r1] == d2[r2] && d1[r1] < 4 {
					r1++
					r2++
				}
				if r1-l1 < w {
					failed++
					// Remember the probe so later probes of the same
					// failed run are skipped cheaply.
					e.diagStamp[diag] = gen
					e.diagEnd[diag] = r1
					continue
				}
				extCount++
				h, _ := e.ext.Extend(d1, d2, l1, l2, 0, nil)
				e.diagStamp[diag] = gen
				e.diagEnd[diag] = h.E1
				if h.Score >= opt.MinUngappedScore {
					hsps = append(hsps, h)
				}
			}
		}
	}
	met.ScannedPositions += scanned
	met.WordHits += hits
	met.SkippedByDiag += skips
	met.VerifyFailed += failed
	met.Extensions += extCount
	met.ScanTime += time.Since(t0)

	// ---- gapped extensions over diagonal-sorted HSPs ----
	t0 = time.Now()
	hsp.SortByDiag(hsps)
	met.HSPs += len(hsps)
	var ta align.TAlign
	for _, h := range hsps {
		if ta.Covered(h) {
			met.SkippedCovered++
			continue
		}
		met.GappedExtensions++
		m1, m2 := h.Mid()
		// Bounds: db side limited to the subject sequence, query side to
		// the query record.
		s1 := db.SeqAt(m1)
		lo1, hi1 := db.SeqBounds(int(s1))
		left := e.gapExt.ExtendLeft(d1, d2, m1, lo1, m2, qLo)
		right := e.gapExt.ExtendRight(d1, d2, m1, hi1, m2, qHi)
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
	met.GapTime += time.Since(t0)
	return ta.All()
}
