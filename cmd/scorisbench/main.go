// Command scorisbench is the repository's benchmark: five named
// workloads through the paths users take (the scoris CLI as a child
// process; scorisd and scoris-router in process over loopback TCP),
// every output byte checked against a serial reference, eight
// end-to-end metrics, and a traced pass that gives per-layer metrics.
// README.md in this directory defines every workload and metric;
// BENCHMARK.json at the root of the repository names the command.
//
//	bash cmd/scorisbench/run.sh -seed 1 -out bench.json       # everything
//	bash cmd/scorisbench/run.sh --workload svc_churn --seed 3 --seconds 10 --trace 0
//	bash cmd/scorisbench/run.sh -compare base.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// setupRepeats is how often a run sets up, to report the median.
const setupRepeats = 3

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload (default: all of "+strings.Join(workloadNames, ", ")+")")
		seed         = flag.Int64("seed", 1, "the only source of randomness: every input is made from it")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace        = flag.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
		out          = flag.String("out", "", "write the full report to this JSON file")
		traceOut     = flag.String("trace-out", "", "write the traced pass's spans to this JSON file")
		smoke        = flag.Bool("smoke", false, "tiny banks and windows: proves the plumbing, measures nothing")
		compare      = flag.Bool("compare", false, "compare two report files: -compare base.json new.json")
		scorisBin    = flag.String("scoris", "", "the scoris CLI binary (default: build it into the work directory)")
		workdir      = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated banks, index stores and outputs")
		expected     = flag.String("expected", "", "expected.json: the reference digests and exact counts pinned for seed 1 at full size (checked when given)")
		updatePins   = flag.Bool("update-expected", false, "rewrite the -expected file from this run instead of checking it (needs -seed 1, all workloads, full size)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: scorisbench -compare base.json new.json")
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}

	// SIGINT/SIGTERM cancel the run: children are killed, servers
	// closed and the work directory removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir, err := os.MkdirTemp(mkdirAll(*workdir), "run-")
	if err != nil {
		fatalf("%v", err)
	}
	code := run(ctx, options{
		names: names, seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke,
		out: *out, traceOut: *traceOut, scorisBin: *scorisBin, workdir: dir, expected: *expected, updatePins: *updatePins,
	})
	os.RemoveAll(dir)
	os.Exit(code)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scorisbench: "+format+"\n", args...)
	os.Exit(2)
}

type options struct {
	names               []string
	seed                int64
	seconds             float64
	trace               int
	smoke               bool
	out, traceOut       string
	scorisBin, workdir  string
	expected            string
	updatePins          bool
	stdout, diagnostics io.Writer
}

// report is the -out file.
type report struct {
	Host      hostInfo          `json:"host"`
	Workloads []*workloadReport `json:"workloads"`
}

// hostInfo says where and how the numbers were taken; numbers from
// different hosts or settings do not compare.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

// result is the last line of standard output: the contract with the
// driver that BENCHMARK.json describes.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run runs the workloads and returns the exit code: 0 only when every
// op produced the reference bytes and every shape assertion held, 1
// when not, 2 when the run could not be made.
func run(ctx context.Context, o options) int {
	if o.stdout == nil {
		o.stdout, o.diagnostics = os.Stdout, os.Stderr
	}
	correct, err := runAll(ctx, o)
	switch {
	case err != nil:
		fmt.Fprintln(o.diagnostics, "scorisbench:", err)
		return 2
	case !correct:
		return 1
	}
	return 0
}

func runAll(ctx context.Context, o options) (correct bool, err error) {
	e := &env{seed: o.seed, sz: fullSizes, clients: runtime.GOMAXPROCS(0), workdir: o.workdir, log: o.diagnostics}
	if o.smoke {
		e.sz = smokeSizes
	}
	if e.scorisBin, err = scorisBinary(ctx, o.scorisBin, o.workdir); err != nil {
		return false, err
	}
	pins := map[string]*expectation{}
	if o.expected != "" && o.seed == pinnedSeed && !o.smoke && !o.updatePins {
		if pins, err = loadExpected(o.expected); err != nil {
			return false, err
		}
	}
	cfg := runConfig{env: e, seconds: o.seconds, untraced: o.trace != 1, traced: o.trace != 0,
		setups: setupRepeats, checkShape: !o.smoke}
	if !cfg.untraced || o.smoke {
		cfg.setups = 1 // setup_s is not reported, or not meant
	}
	rep := report{Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(ctx), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}}
	correct = true
	var spans []span
	for _, name := range o.names {
		var wr *workloadReport
		if len(o.names) == 1 {
			cfg.pinned = pins[name]
			if wr, err = runWorkload(ctx, name, cfg); err == nil {
				printWorkload(o.diagnostics, wr)
			}
		} else {
			wr, err = runChild(ctx, o, e.scorisBin, name)
		}
		if err != nil {
			return false, err
		}
		rep.Workloads = append(rep.Workloads, wr)
		spans = append(spans, wr.spans...)
		correct = correct && wr.correct()
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return false, err
		}
	}
	if o.traceOut != "" && cfg.traced {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return false, err
		}
	}
	if o.updatePins {
		if err := writeExpected(o.expected, rep.Workloads); err != nil {
			return false, err
		}
	}
	// One workload: end with the driver's result line. --trace 0
	// prints the end-to-end metrics BENCHMARK.json lists, --trace 1
	// the per-layer ones.
	if len(rep.Workloads) == 1 {
		wr := rep.Workloads[0]
		res := result{Correct: wr.correct(), Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
		if cfg.untraced {
			for _, d := range driverEndToEnd() {
				res.Metrics[d.Name] = wr.EndToEnd[d.Name]
			}
		}
		if cfg.traced {
			for _, d := range driverPerLayer() {
				res.Metrics[d.Name] = wr.PerLayer[d.Name]
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(o.stdout, "%s\n", line)
	}
	return correct, nil
}

// runChild runs one workload in a process of its own, as the driver
// does, so that a run of all workloads gives each the numbers it has
// alone: a fresh heap, and a peak RSS that is its own.
func runChild(ctx context.Context, o options, scorisBin, name string) (*workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	outPath := filepath.Join(o.workdir, name+".report.json")
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-scoris", scorisBin, "-workdir", o.workdir, "-out", outPath}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if !o.updatePins {
		args = append(args, "-expected", o.expected)
	}
	spanPath := ""
	if o.traceOut != "" {
		spanPath = filepath.Join(o.workdir, name+".spans.json")
		args = append(args, "-trace-out", spanPath)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = o.diagnostics
	// Exit code 1 means ops failed or a shape broke; the report says which.
	if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	reports, err := readReports(outPath)
	if err != nil {
		return nil, err
	}
	wr := reports[0].Workloads[0]
	if spanPath != "" {
		data, err := os.ReadFile(spanPath)
		if err == nil {
			err = json.Unmarshal(data, &wr.spans)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: spans: %w", name, err)
		}
	}
	return wr, nil
}

// scorisBinary returns the CLI to run: the one given, or one built now
// — before any set-up clock starts, since a build measures the Go
// build cache, not this program.
func scorisBinary(ctx context.Context, given, workdir string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	bin, err := filepath.Abs(filepath.Join(workdir, "scoris"))
	if err != nil {
		return "", err
	}
	// repro/cmd/scoris resolves from this module's directory, which is
	// the current directory under `go run` and `go test`, or
	// cmd/scorisbench under the root of the repository.
	moddir := "."
	if _, err := os.Stat("expected.go"); err != nil {
		moddir = filepath.Join("cmd", "scorisbench")
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/scoris")
	cmd.Dir = moddir
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the scoris CLI: %w: %s", err, outp)
	}
	return bin, nil
}

// commit names the commit under test, when the checkout is a git
// repository (the driver's is not).
func commit(ctx context.Context) string {
	outp, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outp))
}

// printWorkload prints one workload's metrics by name, with units.
func printWorkload(w io.Writer, r *workloadReport) {
	fmt.Fprintf(w, "%s: %d ops attempted, %d failed, %d latency samples, %d clients, round of %d\n",
		r.Workload, r.Attempted, r.Failed, r.Samples, r.Clients, r.RoundLen)
	if len(r.RoundMediansMS) > 0 {
		fmt.Fprintf(w, "  op median by fifth of the window (ms): %.2f\n", r.RoundMediansMS)
	}
	if len(r.QuantilesMS) > 0 {
		fmt.Fprintf(w, "  op p50 p75 p90 p95 p99 max (ms): %.2f\n", r.QuantilesMS)
	}
	for _, section := range []map[string]value{r.EndToEnd, r.PerLayer} {
		for _, k := range sortedKeys(section) {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", k, section[k].Value, section[k].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
