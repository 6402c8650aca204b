// Command experiments regenerates the paper's tables and figures
// (DESIGN.md §4 maps each experiment id to its paper artefact) and
// prints them as markdown, ready to paste into EXPERIMENTS.md.
//
//	experiments -exp all -scale 16 > results.md
//	experiments -exp fig3,speedup-est -scale 32
//	experiments -exp speedup-est -check   # also verify the claim shapes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: datasets,fig3,speedup-est,speedup-large,sens-est,sens-large,asymmetric,parallel,ordered-rule,wsweep,dust,seed-order,threeway,all")
		scale   = flag.Int("scale", 16, "bank size divisor relative to the paper")
		workers = flag.Int("workers", 1, "ORIS worker goroutines (1 = paper-faithful single thread)")
		check   = flag.Bool("check", false, "verify the paper's qualitative claims on the measured rows")
		verbose = flag.Bool("v", false, "emit per-run metric comments")
	)
	flag.Parse()

	fmt.Printf("## Experiment run — scale 1/%d, %d worker(s), %s\n\n",
		*scale, *workers, time.Now().Format("2006-01-02 15:04:05"))
	h := experiments.New(experiments.Config{Scale: *scale, Workers: *workers, Out: os.Stdout, Verbose: *verbose})

	runners := map[string]func(){
		"datasets":      h.Datasets,
		"fig3":          h.Fig3,
		"fig3-plot":     h.Fig3Plot,
		"speedup-est":   h.SpeedupEST,
		"speedup-large": h.SpeedupLarge,
		"sens-est":      h.SensitivityEST,
		"sens-large":    h.SensitivityLarge,
		"asymmetric":    h.Asymmetric,
		"parallel":      h.Parallel,
		"ordered-rule":  h.OrderedRule,
		"wsweep":        h.WSweep,
		"dust":          h.Dust,
		"seed-order":    h.SeedOrder,
		"threeway":      h.ThreeWay,
		"all":           h.All,
	}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		run()
	}

	if *check {
		fmt.Println("### Shape checks")
		fmt.Println()
		failed := false
		for _, f := range h.CheckShapes() {
			fmt.Println("-", f)
			if strings.HasPrefix(f, "[FAIL]") {
				failed = true
			}
		}
		fmt.Println()
		if failed {
			os.Exit(1)
		}
	}
}
