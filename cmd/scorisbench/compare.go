package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readReports reads a file holding one or more reports, one after the
// other (`cat run1.json run2.json > base.json`): several runs are what
// give a metric a spread.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var out []report
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no report", path)
	}
	return out, nil
}

// values collects one end-to-end metric of one workload over runs.
func values(reports []report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reports {
		for _, w := range r.Workloads {
			if v, ok := w.EndToEnd[metric]; ok && w.Workload == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the
// median; 0 with fewer than four runs, where quartiles mean little.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	return ratio(quantile(xs, 0.75)-quantile(xs, 0.25), median(xs))
}

// verdict judges one (workload, metric) pair by the rule of the
// choosing-metrics guide: worse than the bound is a regression; a
// spread wider than the bound leaves the pair unresolved, unless every
// new run reads better than every base run.
func verdict(d metricDef, base, next []float64) (ratioToBase float64, v string) {
	b, n := median(base), median(next)
	ratioToBase = ratio(n, b)
	worse := n - b
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = b - n
		better = func(x, y float64) bool { return x > y }
	}
	if spread(base) > d.Bound || spread(next) > d.Bound {
		for _, x := range next {
			for _, y := range base {
				if !better(x, y) {
					return ratioToBase, "unresolved"
				}
			}
		}
		return ratioToBase, "ok"
	}
	if worse > d.Bound*b {
		return ratioToBase, "regressed"
	}
	return ratioToBase, "ok"
}

// compareReports prints one row per (workload, end-to-end metric).
func compareReports(w io.Writer, basePath, newPath string) error {
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	next, err := readReports(newPath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		name string
		rs   []report
	}{{"base", base}, {"new", next}} {
		h := side.rs[0].Host
		fmt.Fprintf(w, "%s: %d run(s), commit %s, seed %d, %gs windows, nproc %d, GOMAXPROCS %d, %s\n",
			side.name, len(side.rs), h.Commit, h.Seed, h.Seconds, h.NProc, h.GOMAXPROCS, h.GoVersion)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tverdict")
	regressed := 0
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			b, n := values(base, name, d.Name), values(next, name, d.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			r, v := verdict(d, b, n)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f (base %.4f)\t%g\t%s\n",
				name, d.Name, d.Unit, median(b), median(n), r, median(b), d.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) regressed", regressed)
	}
	return nil
}
