package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// runConfig is how one invocation runs a workload.
type runConfig struct {
	env     *env
	seconds float64
	// untraced and traced select the passes. The untraced pass gives
	// the end-to-end metrics; the traced pass gives the per-layer ones.
	untraced, traced bool
	setups           int  // how often set-up is repeated for setup_s
	checkShape       bool // off at smoke scale, where no shape holds
	pinned           *expectation
}

// workloadReport is everything one workload printed.
type workloadReport struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of ops behind the latency percentiles;
	// RoundMediansMS splits them, in order, into five medians.
	Samples        int       `json:"samples"`
	RoundMediansMS []float64 `json:"round_medians_ms,omitempty"`
	// QuantilesMS are the p50, p75, p90, p95, p99 and maximum of the
	// same samples: where in the distribution the tail starts.
	QuantilesMS []float64        `json:"quantiles_ms,omitempty"`
	SetupsS     []float64        `json:"setups_s"`
	RoundLen    int              `json:"round_len"`
	Clients     int              `json:"clients"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Exact       map[string]int64 `json:"exact,omitempty"`
	RefSHA256   string           `json:"ref_sha256"`
	Problems    []string         `json:"problems,omitempty"`

	spans []span
}

func (r *workloadReport) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// traceShare is the part of --seconds each of the traced pass's two
// windows (untraced baseline, traced ops) gets; the rest is left to
// the layer replays, which are fixed lists.
const traceShare = 0.35

func runWorkload(ctx context.Context, name string, cfg runConfig) (*workloadReport, error) {
	e := cfg.env
	rep := &workloadReport{Workload: name, Clients: 1}
	var w workload
	for k := 0; k < cfg.setups; k++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, e, filepath.Join(e.workdir, fmt.Sprintf("%s-%d", name, k))); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setUp(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		rep.SetupsS = append(rep.SetupsS, time.Since(start).Seconds())
	}
	defer w.close()
	rep.RoundLen, rep.Clients = w.roundLen(), w.concurrency()
	e.logf("%s: set up in %.2fs (median of %d)", name, median(rep.SetupsS), cfg.setups)

	if err := w.computeRefs(ctx); err != nil {
		return nil, fmt.Errorf("%s: serial reference: %w", name, err)
	}
	rep.RefSHA256 = refDigest(w.refs())
	if p := cfg.pinned; p != nil && p.RefSHA256 != rep.RefSHA256 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("reference digest %s, expected.json pins %s: the serial reference itself changed", rep.RefSHA256, p.RefSHA256))
	}

	// An op that hangs must not hang the run: past three windows the
	// context ends and what is left of the round fails fast.
	measure := func(firstOp int, share float64, tr *tracer) window {
		d := time.Duration(cfg.seconds * share * float64(time.Second))
		wctx, cancel := context.WithTimeout(ctx, 3*d+30*time.Second)
		defer cancel()
		win := runWindow(wctx, w, firstOp, d, tr)
		rep.Attempted += len(win.samples)
		rep.Failed += win.failed()
		for _, s := range win.samples {
			if s.err != nil && len(rep.Problems) < 5 {
				rep.Problems = append(rep.Problems, s.err.Error())
			}
		}
		return win
	}

	nextOp := 0
	var base window
	if cfg.untraced {
		base = measure(nextOp, 1, nil)
		nextOp += len(base.samples)
		rep.endToEnd(name, base)
	}
	if cfg.traced {
		if !cfg.untraced {
			base = measure(nextOp, traceShare, nil)
			nextOp += len(base.samples)
		}
		tr := newTracer(name)
		before, err := w.counters(ctx)
		if err != nil {
			return nil, err
		}
		traced := measure(nextOp, traceShare, tr)
		nextOp += len(traced.samples)
		after, err := w.counters(ctx)
		if err != nil {
			return nil, err
		}
		ms := metricSet{}
		rounds := float64(len(traced.samples)) / float64(w.roundLen())
		for k, v := range after {
			ms[k] = (v - before[k]) / rounds
		}
		tracedMetrics(name, base, traced, tr.snapshot(), ms)
		if err := w.layers(ctx, tr, nextOp, ms); err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", name, err)
		}
		rep.spans = tr.snapshot()
		if err := finishMetrics(name, base, traced, rep.spans, ms); err != nil {
			rep.Problems = append(rep.Problems, err.Error())
		}
		if cfg.checkShape {
			rep.Problems = append(rep.Problems, w.shape(ms)...)
		}
		rep.Exact = exactOf(ms)
		if p := cfg.pinned; p != nil {
			rep.Problems = append(rep.Problems, p.checkExact(rep.Exact)...)
		}
		// The end-to-end metrics that exist on some workloads only are
		// printed with the per-layer ones; the baseline window, which
		// is untraced, measured them.
		e2e, _ := endToEndOf(rep.SetupsS, base)
		for _, d := range endToEnd {
			if d.On != nil && d.definedOn(name) {
				ms[d.Name] = e2e[d.Name]
			}
		}
		rep.PerLayer = ms.render(driverPerLayer())
	}
	return rep, nil
}

// endToEnd fills the report's end-to-end metrics from the untraced
// window.
func (r *workloadReport) endToEnd(name string, win window) {
	ms, lat := endToEndOf(r.SetupsS, win)
	r.Samples = len(lat)
	r.RoundMediansMS = roundMedians(lat, 5)
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		r.QuantilesMS = append(r.QuantilesMS, quantile(lat, q))
	}
	var defined []metricDef
	for _, d := range endToEnd {
		if d.definedOn(name) {
			defined = append(defined, d)
		}
	}
	r.EndToEnd = ms.render(defined)
}

// endToEndOf computes the end-to-end metrics of an untraced window and
// returns them with the latency samples behind the percentiles.
func endToEndOf(setups []float64, win window) (metricSet, []float64) {
	lat := win.latencies()
	ops := float64(len(win.samples))
	ms := metricSet{
		"setup_s":      median(setups),
		"ops_per_s":    float64(win.round) / median(win.roundSeconds()),
		"op_p50_ms":    median(lat),
		"op_p95_ms":    quantile(lat, 0.95),
		"failed_share": ratio(float64(win.failed()), ops),
	}
	var rss, storeBytes []float64
	for _, s := range win.samples {
		if s.err == nil && s.rssMB > 0 {
			rss = append(rss, s.rssMB)
			storeBytes = append(storeBytes, s.storeBytesPerBase)
		}
	}
	if len(rss) > 0 {
		// Exec workloads: the children's peak RSS.
		ms["peak_rss_mb"] = median(rss)
		ms["store_bytes_per_base"] = median(storeBytes)
	} else {
		// Service workloads: the servers run in this process.
		ms["peak_rss_mb"] = ownPeakRSSMB()
		ms["alloc_mb_per_op"] = float64(win.rt.allocBytes) / 1e6 / ops
	}
	return ms, lat
}

// ownPeakRSSMB is this process's peak resident set (Linux: KiB).
func ownPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// tracedMetrics derives what every workload reads off its op spans and
// windows: per-request medians, bytes per op, runtime cost per op.
func tracedMetrics(name string, base, traced window, spans []span, ms metricSet) {
	p50 := func(metric, layer, spanName string) { ms[metric] = median(spanMS(spans, layer, spanName)) }
	p50("server.upload_p50_ms", "server", "upload")
	p50("server.compare_p50_ms", "server", kindCompare)
	p50("server.stream_p50_ms", "server", kindStream)
	p50("server.stream_first_byte_p50_ms", "server", kindStream+"_first_byte")
	p50("server.batch_p50_ms", "server", kindBatch)
	p50("server.job_p50_ms", "server", kindJob)
	p50("server.blat_p50_ms", "server", kindBlat)
	p50("server.delete_p50_ms", "server", "delete")
	ms["server.compare_p99_ms"] = quantile(spanMS(spans, "server", kindCompare), 0.99)
	p50("fleet.routed_p50_ms", "fleet", kindCompare)
	p50("fleet.direct_p50_ms", "server", kindDirect)
	p50("fleet.stream_first_byte_p50_ms", "fleet", kindStream+"_first_byte")
	p50("fleet.batch_p50_ms", "fleet", kindBatch)
	ms["fleet.routed_p99_ms"] = quantile(spanMS(spans, "fleet", kindCompare), 0.99)
	if name == wlFleetHot {
		ms["fleet.relay_p50_ms"] = median(pairedDiffs(spans, "fleet", pairedCompare, "server", kindDirect))
		lo, total := -1.0, 0.0
		for k := 0; k < fleetWorkers; k++ {
			c := ms[fmt.Sprintf("worker%d.compares", k)]
			total += c
			if lo < 0 || c < lo {
				lo = c
			}
		}
		ms["fleet.worker_share_min"] = ratio(lo, total)
	}

	var bytesOut, compares float64
	for _, s := range traced.samples {
		bytesOut += float64(s.bytes)
		if s.kind != kindExec {
			compares++
		}
	}
	ops := float64(len(traced.samples))
	ms["tabular.m8_bytes_per_op"] = bytesOut / ops
	ms["server.bytes_out_per_compare"] = ratio(bytesOut, compares)

	// The Go runtime's cost per op, where the program runs in this
	// process: the untraced baseline for the service workloads, the
	// replica ops for the exec ones.
	rtw := base
	if isExec(name) {
		rtw = traced
	}
	n := float64(len(rtw.samples))
	ms["runtime.gc_cycles_per_op"] = float64(rtw.rt.gcCycles) / n
	ms["runtime.gc_pause_ms_per_op"] = float64(rtw.rt.gcPauseNS) / 1e6 / n
	ms["runtime.mallocs_per_op"] = float64(rtw.rt.mallocs) / n
	ms["runtime.live_heap_peak_mb"] = float64(rtw.rt.heapPeak) / 1e6
}

// finishMetrics derives what needs the whole traced pass, replays
// included: the metrics that are a rate or a median over one kind of
// span, the cache's hit ratio, and the report on the trace itself —
// what tracing cost, and how much op time no layer span covers.
func finishMetrics(name string, base, traced window, spans []span, ms metricSet) error {
	ms["fasta.load_mb_per_s"] = workRate(spans, "fasta", "load", "parse") / 1e6
	ms["fasta.parse_body_us"] = median(spanMS(spans, "fasta", "parse")) * 1e3
	ms["tabular.m8_mb_per_s"] = workRate(spans, "tabular", "write_m8") / 1e6
	ms["index.build_ms"] = median(append(spanMS(spans, "index", "prepare"), spanMS(spans, "index", "build")...))
	ms["index.build_mbases_per_s"] = workRate(spans, "index", "prepare", "build") / 1e6
	for _, ph := range storePhases {
		ms["ixdisk."+ph.name+"_prepare_ms"] = median(spanMS(spans, "ixdisk", ph.name+"_prepare"))
	}
	ms["ixcache.hit_ratio"] = 1 - ratio(ms["ixcache.builds"]+ms["ixcache.disk_hits"], ms["ixcache.lookups"])

	if isExec(name) {
		// The traced op is the in-process replica of the exec'd op, so
		// the difference is the cost of being a process, not of spans.
		ms["cli.process_overhead_ms"] = median(base.latencies()) - median(traced.latencies())
	} else if b := median(base.latencies()); b > 0 {
		ms["trace.overhead_share"] = (median(traced.latencies()) - b) / b
	}
	byLayer, opTotal, err := attribution(spans)
	if err != nil {
		return err
	}
	ms["trace.unattributed_share"] = ratio(float64(byLayer[layerOp]), float64(opTotal))
	return nil
}

// exactOf extracts the counts that must repeat exactly for a seed.
func exactOf(ms metricSet) map[string]int64 {
	out := make(map[string]int64)
	for _, k := range exactMetrics {
		out[k] = int64(ms[k])
	}
	return out
}

// exactMetrics are the per-layer counts expected.json pins for seed 1.
var exactMetrics = []string{
	"core.hit_pairs", "core.extensions", "core.aborted", "core.hsps", "core.gapped_extensions",
	"core.skipped_covered", "core.alignments", "index.positions", "index.masked_seeds",
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
