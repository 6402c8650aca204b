package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric
// and workload tables of this package, one for one, and to the limits
// of the benchmark contract.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/scorisbench" {
		t.Errorf("paths = %v, want [cmd/scorisbench]", b.Paths)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var names []string
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}

	e2e := driverEndToEnd()
	if n := len(b.EndToEnd); n != len(e2e) || n > 16 {
		t.Fatalf("%d end_to_end metrics, the tables have %d (at most 16)", n, len(e2e))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName("end_to_end", m.Name)
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the tables have %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	pl := driverPerLayer()
	if n := len(b.PerLayer); n != len(pl) || n > 128 {
		t.Fatalf("%d per_layer metrics, the tables have %d (at most 128)", n, len(pl))
	}
	for i, m := range b.PerLayer {
		checkName("per_layer", m.Name)
		if m.Name != pl[i].Name || m.Unit != pl[i].Unit {
			t.Errorf("per_layer[%d] = %s (%s), the tables have %s (%s)", i, m.Name, m.Unit, pl[i].Name, pl[i].Unit)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better = %q", m.Name, m.Better)
		}
	}
}

var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

// testScoris builds the scoris CLI once for all smoke runs.
func testScoris(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "scorisbench-test-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin, buildErr = scorisBinary(context.Background(), "", dir)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(filepath.Dir(builtBin))
	}
	os.Exit(code)
}

// TestSmoke runs every workload at tiny scale, untraced and traced,
// and checks that each run is correct and prints exactly the metrics
// BENCHMARK.json promises for that pass, each with a unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	bin := testScoris(t)
	for _, w := range b.Workloads {
		for _, trace := range []int{0, 1} {
			var want []string
			if trace == 0 {
				for _, m := range b.EndToEnd {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range b.PerLayer {
					want = append(want, m.Name)
				}
			}
			sort.Strings(want)

			var stdout bytes.Buffer
			code := run(context.Background(), options{
				names: []string{w.Name}, seed: 7, seconds: 0.2, trace: trace, smoke: true,
				scorisBin: bin, workdir: t.TempDir(), stdout: &stdout, diagnostics: io.Discard,
			})
			if code != 0 {
				t.Fatalf("%s --trace %d: exit code %d", w.Name, trace, code)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s --trace %d: result line: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := sortedKeys(res.Metrics)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s --trace %d prints %v, BENCHMARK.json promises %v", w.Name, trace, got, want)
			}
			for name, v := range res.Metrics {
				if v.Unit == "" {
					t.Errorf("%s: %s has no unit", w.Name, name)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, name, v.Value)
				}
			}
		}
	}
}

// TestInputsFollowSeed: the same seed gives the same banks, another
// seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	bank := func(seed int64) []byte {
		e := &env{seed: seed, sz: smokeSizes}
		genes, _ := e.genePool(e.sz.poolGenes)
		recs := estReads(e.rng(streamDB), estSpec{"db", 20, 450, 0.7}, genes)
		recs = append(recs, genomicSeqs(e.rng(streamBank), genomicSpec{"g", 1, 5000, 2, 100, 3, 20, 40}, genes)...)
		return fastaText(recs)
	}
	if !bytes.Equal(bank(3), bank(3)) {
		t.Error("seed 3 gave two different banks")
	}
	if bytes.Equal(bank(3), bank(4)) {
		t.Error("seeds 3 and 4 gave the same bank")
	}
}

func TestSelfTimesAndAttribution(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Layer: layerOp, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Layer: "core", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 2, Op: 1, Layer: "core", StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, Op: 1, Layer: "tabular", StartNS: 60, EndNS: 90},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 30, 4: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer, total, err := attribution(spans)
	if err != nil || total != 100 || byLayer[layerOp] != 20 || byLayer["core"] != 50 || byLayer["tabular"] != 30 {
		t.Errorf("attribution = %v, %d, %v", byLayer, total, err)
	}
	// Two siblings covering the same interval break the sum.
	spans = append(spans, span{ID: 5, Parent: 1, Op: 1, Layer: "tabular", StartNS: 60, EndNS: 90})
	if _, _, err := attribution(spans); err == nil {
		t.Error("overlapping siblings passed the attribution check")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, next []float64
		want       string
	}{
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"worse than bound", lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{"higher is better, dropped", higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{"wide spread", lower, []float64{80, 100, 120, 90, 110}, []float64{95, 105, 100, 100, 100}, "unresolved"},
		{"wide spread, all better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 51, 52, 50, 51}, "ok"},
		{"single runs", lower, []float64{100}, []float64{130}, "regressed"},
	} {
		if _, got := verdict(tc.d, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
