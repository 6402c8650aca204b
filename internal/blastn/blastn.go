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
//   - ungapped X-drop extension (package hsp) into score-thresholded
//     HSPs.
//
// From there on a query's HSPs go through align.Run — gapped X-drop
// extension, dedup, Karlin–Altschul E-values with the same m·n
// convention, display order — the code the other two engines run, so a
// sensitivity comparison reflects search strategy by construction. A
// query is searched on its plus strand and, with BothStrands, on its
// reverse complement before the next one starts, so its group is final
// when emitted: CompareStream streams like ORIS, and Compare collects
// it.
//
// Lookup tables and diagonal arrays are generation-stamped so per-query
// setup is O(query length), not O(4^W) — the real BLAST does the same.
// The stamps also let one set of arrays serve any call, so the engine
// is a plain function like core's and blat's: each call takes its
// arrays from a package pool and grows them to its db and longest
// query, and a warm process pays the O(len(db)) allocations once.
package blastn

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/hsp"
	"repro/internal/seed"
)

// Options configures the baseline. The shared parameters take the other
// engines' defaults (align.DefaultParams), so engine comparisons are
// apples-to-apples; W is the word size (BLASTN default 11), MaxEValue is
// -e, and Dust masks low-complexity words out of the query lookup
// table, as -F T does.
type Options struct {
	align.Params
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
	return Options{Params: align.DefaultParams(), ScanWord: 8, ScanStride: 4}
}

// Validate checks option consistency.
func (o *Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("blastn: %w", err)
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
	// Stats are the step 3–4 clocks and counters.
	align.Stats

	// Queries counts the query strands searched: short queries are
	// skipped, and a both-strands run searches each query twice.
	Queries          int
	ScannedPositions int64
	WordHits         int64
	SkippedByDiag    int64
	VerifyFailed     int64
	Extensions       int64
	HSPs             int
}

// Result bundles alignments with metrics.
type Result = align.Result[Metrics]

// scratch is the word-table and diagonal state of one call. Calls take
// it from scratchPool and give it back, so a warm process allocates
// none of it; the generation stamps are what make one scratch valid for
// any db, options and query bank: curGen only moves upward from 1, so a
// stamp left by an earlier call never matches, and grown arrays arrive
// zeroed, which the stamps read as "never touched".
type scratch struct {
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
}

// scratchPool keeps scratch between calls; a pooled scratch keeps what
// it has grown to until the collector drops idle pool entries.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow sizes s for a scan of ScanWord-mers over a db of dbLen codes by
// queries of at most maxQ bases.
func (s *scratch) grow(scanWord, dbLen, maxQ int) {
	nCodes := seed.NumCodes(scanWord)
	if len(s.gen) < nCodes {
		s.gen = make([]int32, nCodes)
		s.head = make([]int32, nCodes)
	}
	words := (nCodes + 63) / 64
	s.present = slices.Grow(s.present[:0], words)[:words]
	if len(s.nextPos) < maxQ+1 {
		s.nextPos = make([]int32, maxQ+1)
	}
	if need := dbLen + maxQ + 1; len(s.diagEnd) < need {
		s.diagEnd = make([]int32, need)
		s.diagStamp = make([]int32, need)
	}
}

// engine is one call's search state: the db and options, the scratch
// it holds, and the extender built from the options.
type engine struct {
	*scratch
	opt Options
	db  *bank.Bank
	ext hsp.Extender
}

// Compare searches every sequence of queries against db and returns the
// whole alignment table, sorted for display: the collected form of
// CompareStream. db plays the paper's "bank 1" (subject) role.
func Compare(db, queries *bank.Bank, opt Options) (*Result, error) {
	return align.Collect(func(emit align.Emit) (*Result, error) {
		return CompareStream(context.Background(), db, queries, opt, emit)
	})
}

// CompareStream searches the sequences of queries against db one at a
// time — on a both-strands run the plus strand, then the reverse
// complement — and delivers each one's alignments through emit the
// moment they are final, under align.Emit's contract. ctx is checked
// between query sequences. It is safe for concurrent use: each call
// holds its own scratch.
func CompareStream(ctx context.Context, db, queries *bank.Bank, opt Options, emit align.Emit) (*Result, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.compareStream(ctx, db, queries, opt, emit)
}

// compareStream is CompareStream on the scratch s.
func (s *scratch) compareStream(ctx context.Context, db, queries *bank.Bank, opt Options, emit align.Emit) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	maxQ := 0
	for i := 0; i < queries.NumSeqs(); i++ {
		maxQ = max(maxQ, queries.SeqLen(i))
	}
	scanWord, _ := opt.scanParams()
	s.grow(scanWord, len(db.Data), maxQ)
	e := &engine{
		scratch: s,
		opt:     opt,
		db:      db,
		ext:     opt.Ungapped(false), // BLAST has no ordered-seed rule
	}
	var met Metrics
	met.SetupTime = time.Since(t0)

	var rc *bank.Bank
	if opt.BothStrands {
		rc = queries.ReverseComplement()
	}
	err := opt.Run(ctx, db, queries, rc, &met.Stats, func(qi int) (plus, minus []hsp.HSP, _ error) {
		plus = e.searchQuery(queries, qi, &met)
		if rc != nil {
			minus = e.searchQuery(rc, qi, &met)
		}
		return plus, minus, nil
	}, emit)
	if err != nil {
		return nil, err
	}
	return &Result{Metrics: met}, nil
}

// searchQuery runs the word table and the subject scan for one query
// sequence and returns its HSPs. It reuses e's scratch, which Run's
// bank-order calls from one goroutine allow.
func (e *engine) searchQuery(queries *bank.Bank, qi int, met *Metrics) []hsp.HSP {
	opt := e.opt
	qLo, qHi := queries.SeqBounds(qi)
	qLen := qHi - qLo
	met.Queries++

	// ---- build the query word table over ScanWord-mers ----
	t0 := time.Now()
	e.curGen++
	gen := e.curGen
	mask := dust.Scan(queries.Data[qLo:qHi], opt.Dust)
	scanWord, stride := opt.scanParams()
	sw := int32(scanWord)
	clear(e.present)
	seed.ForEach(queries.Data[qLo:qHi], scanWord, func(rel int32, c seed.Code) {
		if mask.Masked(int(rel), scanWord) {
			return
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
	met.HSPs += len(hsps)
	met.ScanTime += time.Since(t0)
	return hsps
}
