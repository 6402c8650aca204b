// Package experiments regenerates every table and figure of the
// paper's evaluation (§3) plus the ablations listed in DESIGN.md §4:
//
//	T1       data-set table (bank name, #seq, Mbp)
//	F3       execution time vs search space, SCORIS-N and BLASTN
//	T2, T3   speed-up tables (EST pairs; large-bank pairs)
//	T4–T7    sensitivity tables (SCORISmiss / BLASTmiss)
//	X1       asymmetric 10-nt indexing (§3.4)
//	X2       step-2 parallel scaling (§4)
//	A1       ordered-seed rule vs naive + dedup
//	A2       seed-length sweep
//	A3       dust filter on/off
//
// Results are printed as markdown tables so the output can be pasted
// into EXPERIMENTS.md verbatim. Absolute times depend on the host; the
// claims under reproduction are the *shapes*: SCORIS-N faster
// everywhere, speed-up growing with EST search space, and
// low-single-digit cross-engine miss rates.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/core"
	"repro/internal/ixcache"
	"repro/internal/ixdisk"
	"repro/internal/sensemetric"
	"repro/internal/simulate"
	"repro/internal/tabular"
)

// Pair names one bank-vs-bank comparison, in the paper's "A vs B"
// order: A is the subject/database bank, B supplies the queries.
type Pair struct {
	A, B simulate.PaperBank
}

func (p Pair) String() string { return fmt.Sprintf("%s vs %s", p.A, p.B) }

// ESTPairs reproduces the rows of the paper's EST speed-up table and
// figure 3, in increasing search-space order.
var ESTPairs = []Pair{
	{simulate.EST1, simulate.EST2},
	{simulate.EST1, simulate.EST3},
	{simulate.EST1, simulate.EST5},
	{simulate.EST3, simulate.EST4},
	{simulate.EST1, simulate.EST7},
	{simulate.EST4, simulate.EST5},
	{simulate.EST5, simulate.EST6},
	{simulate.EST5, simulate.EST7},
}

// LargePairs reproduces the large-bank speed-up and sensitivity rows.
var LargePairs = []Pair{
	{simulate.H19, simulate.VRL},
	{simulate.BCT, simulate.EST7},
	{simulate.H19, simulate.BCT},
	{simulate.BCT, simulate.VRL},
	{simulate.H10, simulate.VRL},
	{simulate.H10, simulate.BCT},
}

// SensLargePairs is the paper's sensitivity-table row order for large
// banks (BCT vs EST7 first, H10 vs BCT last).
var SensLargePairs = []Pair{
	{simulate.BCT, simulate.EST7},
	{simulate.BCT, simulate.VRL},
	{simulate.H10, simulate.VRL},
	{simulate.H19, simulate.VRL},
	{simulate.H10, simulate.BCT},
	{simulate.H19, simulate.BCT},
}

// Config tunes a harness run.
type Config struct {
	// Scale divides the paper's bank sizes (16 ⇒ ~25× smaller search
	// spaces; see DESIGN.md §3 on the substitution).
	Scale int
	// Workers for the ORIS engine. The paper's prototype is
	// single-threaded; 1 keeps the engine comparison fair.
	Workers int
	// Out receives markdown tables.
	Out io.Writer
	// Verbose adds per-run metric lines.
	Verbose bool
	// IndexDir, when non-empty, attaches a persistent on-disk index
	// store (package ixdisk) below the harness's in-memory cache, so
	// repeated harness runs against the same generated banks skip
	// every index build after the first run's.
	IndexDir string
	// IndexPolicy bounds what the store persists (zero = everything).
	// Subject banks of each pair are marked as database banks, so a
	// DBOnly policy keeps per-run query indexes out of the store.
	IndexPolicy ixdisk.SavePolicy
	// IndexGC bounds the store directory (zero = unbounded); applied
	// automatically on saves, and on demand via Harness.StoreGC.
	IndexGC ixdisk.GCConfig
}

// DefaultConfig returns the standard configuration (scale 16,
// single-worker engines).
func DefaultConfig(out io.Writer) Config {
	return Config{Scale: 16, Workers: 1, Out: out}
}

// RowResult is the outcome of one pair comparison with both engines.
type RowResult struct {
	Pair        Pair
	SearchSpace float64 // Mbp(A) × Mbp(B), the paper's x-axis
	ScorisTime  time.Duration
	BlastTime   time.Duration
	Speedup     float64
	Sens        sensemetric.Report
	Scoris      core.Metrics
	Blast       blastn.Metrics
}

// indexCacheSize bounds the harness's shared prepared-bank cache. A
// full All() run touches ~30 distinct (bank, options) keys (11 banks at
// the default options plus the ablation variants); 64 keeps every key
// resident so each index is built exactly once per run.
const indexCacheSize = 64

// Harness generates banks once, shares one prepared-bank index cache
// across every experiment, and caches pair results so that the speed-up
// and sensitivity tables reuse the same runs, exactly as the paper
// derives both tables from one set of executions.
//
// ORIS rows are timed end to end (cache fetch + comparison): a row
// that first touches a (bank, options) key pays its build, and every
// later row reusing it doesn't — the harness is exactly the intensive
// multi-pair workload the paper says amortizes the front-loaded build
// (PAPER.md), so the build cost appears once per key per run instead
// of once per row, while staying comparable with the BLASTN column.
type Harness struct {
	cfg   Config
	ds    *simulate.DataSet
	ix    *ixcache.Cache
	store *ixdisk.DirStore
	bns   map[*bank.Bank]*blastn.Session
	cache map[Pair]*RowResult
}

// New creates a harness (generating the data set eagerly). The only
// fallible input is Config.IndexDir — an unusable store directory is
// reported as an error, not a panic, since it comes straight from a
// CLI flag.
func New(cfg Config) (*Harness, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 16
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	ix := ixcache.New(indexCacheSize)
	ds := simulate.NewDataSet(cfg.Scale)
	var store *ixdisk.DirStore
	if cfg.IndexDir != "" {
		var err error
		store, err = ixdisk.NewDirStore(cfg.IndexDir)
		if err != nil {
			return nil, fmt.Errorf("experiments: index store %s: %w", cfg.IndexDir, err)
		}
		store.SetSavePolicy(cfg.IndexPolicy)
		store.SetGC(cfg.IndexGC)
		// Mark every subject bank of the static pair tables up front:
		// the save decision is made when a bank's index is first built,
		// and several subjects (EST3, EST4, ...) are first built as the
		// query side of an earlier row — marking at RunPair time would
		// be too late for those under a DBOnly policy.
		for _, pairs := range [][]Pair{ESTPairs, LargePairs, SensLargePairs} {
			for _, p := range pairs {
				store.MarkDB(ds.Get(p.A))
			}
		}
		ix.SetStore(store)
	}
	return &Harness{
		cfg:   cfg,
		ds:    ds,
		ix:    ix,
		store: store,
		bns:   map[*bank.Bank]*blastn.Session{},
		cache: map[Pair]*RowResult{},
	}, nil
}

// DataSet exposes the generated banks.
func (h *Harness) DataSet() *simulate.DataSet { return h.ds }

// IndexCache exposes the shared prepared-bank cache (its Builds counter
// is the build-once-per-key assertion hook used by tests).
func (h *Harness) IndexCache() *ixcache.Cache { return h.ix }

// Store exposes the on-disk index store, nil when Config.IndexDir was
// empty — for the CLI's counter lines and explicit StoreGC calls.
func (h *Harness) Store() *ixdisk.DirStore { return h.store }

// StoreGC runs an explicit collection under Config.IndexGC. ok is
// false when no store is attached.
func (h *Harness) StoreGC() (st ixdisk.GCStats, ok bool, err error) {
	if h.store == nil {
		return ixdisk.GCStats{}, false, nil
	}
	st, err = h.store.GC()
	return st, true, err
}

// compareORIS runs the ORIS engine on a pair through the shared index
// cache. The timer wraps the cache fetch AND the comparison, so a row
// that touches a (bank, options) key for the first time pays that
// build inside its reported duration — keeping ORIS and BLASTN rows
// end-to-end-comparable — while every later row reusing the key skips
// it, which is the honest amortized cost of the intensive workload.
func (h *Harness) compareORIS(a, b *bank.Bank, opt core.Options) (*core.Result, time.Duration) {
	if h.store != nil {
		h.store.MarkDB(a) // ad-hoc ablation subjects not in the pair tables
	}
	t0 := time.Now()
	p1, p2, err := core.Prepare(h.ix, a, b, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: prepare %s/%s: %v", a.Name, b.Name, err))
	}
	res, err := core.CompareWithIndex(p1, p2, opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: ORIS %s/%s: %v", a.Name, b.Name, err))
	}
	return res, time.Since(t0)
}

// blastnSession returns the shared baseline session for db bank a,
// allocating it on first touch. The ORIS and BLAT sides already share
// their per-bank artifacts through the index cache; this closes the
// ROADMAP gap where the baseline re-allocated its db-sized engine
// arrays (diagonal tables, word lookup) for every pair sharing a db
// bank. Safe because the harness runs pairs sequentially and every
// row uses blastn.DefaultOptions — a Session is single-threaded and
// valid only for the (db, Options) it was created with.
func (h *Harness) blastnSession(a *bank.Bank) *blastn.Session {
	if s, ok := h.bns[a]; ok {
		return s
	}
	s, err := blastn.NewSession(a, blastn.DefaultOptions())
	if err != nil {
		panic(fmt.Sprintf("experiments: blastn session %s: %v", a.Name, err))
	}
	h.bns[a] = s
	return s
}

// compareBlastn runs the baseline through the shared per-db-bank
// session. Like compareORIS, the timer wraps the session fetch AND the
// comparison: the first row touching a db bank pays the engine
// allocation inside its reported duration, later rows reuse it — the
// same honest amortized accounting as the ORIS column.
func (h *Harness) compareBlastn(a, b *bank.Bank) (*blastn.Result, time.Duration) {
	t0 := time.Now()
	res, err := h.blastnSession(a).Compare(b)
	if err != nil {
		panic(fmt.Sprintf("experiments: BLASTN %s/%s: %v", a.Name, b.Name, err))
	}
	return res, time.Since(t0)
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.cfg.Out, format, args...)
}

// RunPair executes both engines on a pair (cached).
func (h *Harness) RunPair(p Pair) *RowResult {
	if r, ok := h.cache[p]; ok {
		return r
	}
	a := h.ds.Get(p.A)
	b := h.ds.Get(p.B)

	oOpt := core.DefaultOptions()
	oOpt.Workers = h.cfg.Workers
	ores, oTime := h.compareORIS(a, b, oOpt)

	bres, bTime := h.compareBlastn(a, b)

	oTab := toTab(ores.Alignments, a, b)
	bTab := toTab(bres.Alignments, a, b)

	r := &RowResult{
		Pair:        p,
		SearchSpace: a.Mbp() * b.Mbp(),
		ScorisTime:  oTime,
		BlastTime:   bTime,
		Speedup:     safeRatio(bTime, oTime),
		Sens:        sensemetric.Compare(oTab, bTab, sensemetric.DefaultMinOverlap),
		Scoris:      ores.Metrics,
		Blast:       bres.Metrics,
	}
	h.cache[p] = r
	if h.cfg.Verbose {
		h.printf("<!-- %s: oris %.2fs (hsps %d, aligns %d) | blastn %.2fs (hsps %d, aligns %d) -->\n",
			p, oTime.Seconds(), ores.Metrics.HSPs, len(ores.Alignments),
			bTime.Seconds(), bres.Metrics.HSPs, len(bres.Alignments))
	}
	return r
}

func toTab(as []align.Alignment, b1, b2 *bank.Bank) []tabular.Record {
	out := make([]tabular.Record, len(as))
	for i := range as {
		out[i] = tabular.FromAlignment(&as[i], b1, b2)
	}
	return out
}

func safeRatio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
