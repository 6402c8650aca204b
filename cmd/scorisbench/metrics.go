package main

import (
	"math"
	"sort"
)

// Workload names, in report order. They are stable: BENCHMARK.json,
// expected.json and every later performance claim refer to them.
const (
	wlEstCold     = "est_cold"
	wlStoreCycle  = "store_cycle"
	wlSvcAllpairs = "svc_allpairs"
	wlSvcChurn    = "svc_churn"
	wlFleetHot    = "fleet_hot"
)

var workloadNames = []string{wlEstCold, wlStoreCycle, wlSvcAllpairs, wlSvcChurn, wlFleetHot}

// metricDef declares one reported metric. Better and Bound are set on
// end-to-end metrics only; On lists the workloads the metric is
// defined on (nil: all of them).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     []string
}

func (d metricDef) definedOn(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var serviceWorkloads = []string{wlSvcAllpairs, wlSvcChurn, wlFleetHot}

// isExec reports whether the workload runs the CLI as child processes
// (the others run the servers in this process).
func isExec(workload string) bool { return workload == wlEstCold || workload == wlStoreCycle }

// endToEnd is the full end-to-end list. BENCHMARK.json's end_to_end
// holds the entries defined on every workload (its schema has one list
// for all workloads and wants no metric that reads 0); the others are
// reported there as per-layer entries, and failed_share is carried by
// the driver's own attempted/failed fields.
//
// The bounds of the timings and of the peak RSS are as wide as the
// benchmark contract allows, because the host they were chosen on is:
// its speed drifts by ±15 % over minutes, and the quartiles of ten
// runs of one commit lay up to 17 % of the median apart (est_cold,
// op_p50_ms; CHANGES.md has the table). A bound below the spread would
// call that drift a regression. The two counts keep tight bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wlSvcChurn, wlFleetHot}},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03, On: serviceWorkloads},
	{Name: "store_bytes_per_base", Unit: "B", Better: "lower", Bound: 0.005, On: []string{wlStoreCycle}},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// perLayer lists the traced pass's metrics, grouped by the module they
// observe. README.md defines each one. They carry no bound; Better says
// which way is good when all else is equal (a count of work done is
// better lower, a count of results found better higher).
var perLayer = []metricDef{
	{Name: "fasta.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fasta.parse_body_us", Unit: "us", Better: "lower"},

	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "index.build_mbases_per_s", Unit: "Mbase/s", Better: "higher"},
	{Name: "index.build_small_us", Unit: "us", Better: "lower"},
	{Name: "index.build_small_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "index.positions", Unit: "count", Better: "lower"},
	{Name: "index.masked_seeds", Unit: "count", Better: "lower"},

	{Name: "core.index_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step4_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step2_share", Unit: "ratio", Better: "lower"},
	{Name: "core.step3_share", Unit: "ratio", Better: "lower"},
	{Name: "core.step2_ns_per_hit_pair", Unit: "ns", Better: "lower"},
	{Name: "core.step3_us_per_gapped_ext", Unit: "us", Better: "lower"},
	{Name: "core.hit_pairs", Unit: "count", Better: "lower"},
	{Name: "core.extensions", Unit: "count", Better: "lower"},
	{Name: "core.aborted", Unit: "count", Better: "lower"},
	{Name: "core.hsps", Unit: "count", Better: "lower"},
	{Name: "core.gapped_extensions", Unit: "count", Better: "lower"},
	{Name: "core.skipped_covered", Unit: "count", Better: "lower"},
	{Name: "core.alignments", Unit: "count", Better: "higher"},
	{Name: "core.hsp_yield", Unit: "ratio", Better: "higher"},
	{Name: "core.covered_ratio", Unit: "ratio", Better: "higher"},

	{Name: "tabular.m8_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "tabular.m8_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "ixcache.lookups", Unit: "count", Better: "lower"},
	{Name: "ixcache.builds", Unit: "count", Better: "lower"},
	{Name: "ixcache.evictions", Unit: "count", Better: "lower"},
	{Name: "ixcache.disk_hits", Unit: "count", Better: "lower"},
	{Name: "ixcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ixcache.get_hit_us", Unit: "us", Better: "lower"},

	{Name: "ixdisk.cold_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.warm_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.append_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.rewarm_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.save_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.load_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.load_copy_ms", Unit: "ms", Better: "lower"},
	{Name: "ixdisk.load_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "ixdisk.file_bytes", Unit: "B", Better: "lower"},
	{Name: "ixdisk.append_bytes", Unit: "B", Better: "lower"},
	{Name: "ixdisk.append_write_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ixdisk.block_loads", Unit: "count", Better: "lower"},
	{Name: "ixdisk.block_appends", Unit: "count", Better: "lower"},
	{Name: "ixdisk.extends", Unit: "count", Better: "lower"},
	{Name: "ixdisk.store_errors", Unit: "count", Better: "lower"},

	{Name: "server.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.compare_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_first_byte_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.blat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.compare_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.bytes_out_per_compare", Unit: "B", Better: "lower"},
	{Name: "server.requests", Unit: "count", Better: "lower"},
	{Name: "server.admissions", Unit: "count", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.abandoned", Unit: "count", Better: "lower"},
	{Name: "server.timed_out", Unit: "count", Better: "lower"},

	{Name: "fleet.routed_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.direct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.relay_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.routed_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.stream_first_byte_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.worker_share_min", Unit: "ratio", Better: "higher"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower"},
	{Name: "fleet.backfills", Unit: "count", Better: "lower"},
	{Name: "fleet.shed", Unit: "count", Better: "lower"},
	{Name: "fleet.torn_relays", Unit: "count", Better: "lower"},

	{Name: "cli.process_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.live_heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
}

// driverEndToEnd is the subset of endToEnd a `--trace 0` run prints
// and BENCHMARK.json lists: defined on every workload, never 0.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.On == nil && d.Name != "failed_share" {
			out = append(out, d)
		}
	}
	return out
}

// driverPerLayer is what a `--trace 1` run prints and BENCHMARK.json
// lists under per_layer: the end-to-end metrics that exist on some
// workloads only, then every layer metric.
func driverPerLayer() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.On != nil {
			out = append(out, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	return append(out, perLayer...)
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them against a
// declared list, so a name that was never declared cannot be printed
// and a declared one that was never measured prints 0.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// roundMedians splits xs, in measurement order, into n consecutive
// chunks and returns each chunk's median, so that drift within a
// window is visible next to the window's own median.
func roundMedians(xs []float64, n int) []float64 {
	if len(xs) < n {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = median(xs[i*len(xs)/n : (i+1)*len(xs)/n])
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
