// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per artefact; DESIGN.md §4 maps ids to
// paper artefacts). Each iteration rebuilds the scaled data set and
// recomputes the table from scratch into io.Discard, so ns/op is the
// honest cost of regenerating that artefact. BenchScale divides the
// paper's bank sizes; 1/64 is also the scale of the cmd/experiments
// run recorded in EXPERIMENTS.md, and keeps `go test -bench=.` to
// minutes.
package scoris

import (
	"io"
	"testing"

	"repro/internal/blastn"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simulate"
)

// BenchScale is the data-set divisor used by the table benchmarks.
const BenchScale = 64

func benchConfig() experiments.Config {
	return experiments.Config{Scale: BenchScale, Workers: 1, Out: io.Discard}
}

// BenchmarkTable1_BankGeneration regenerates the §3.2 data-set table:
// all 11 synthetic banks plus the summary rows.
func BenchmarkTable1_BankGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.Datasets()
	}
}

// BenchmarkFig3_ScorisESTCurve regenerates the SCORIS-N series of
// figure 3: the ORIS engine over all eight EST pairs.
func BenchmarkFig3_ScorisESTCurve(b *testing.B) {
	ds := simulate.NewDataSet(BenchScale)
	opt := core.DefaultOptions()
	opt.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.ESTPairs {
			if _, err := core.Compare(ds.Get(p.A), ds.Get(p.B), opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3_BlastnESTCurve regenerates the BLASTN series of
// figure 3: the baseline over all eight EST pairs.
func BenchmarkFig3_BlastnESTCurve(b *testing.B) {
	ds := simulate.NewDataSet(BenchScale)
	opt := blastn.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range experiments.ESTPairs {
			if _, err := blastn.Compare(ds.Get(p.A), ds.Get(p.B), opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2_SpeedupEST regenerates the EST speed-up table (both
// engines on all eight pairs, timed rows).
func BenchmarkTable2_SpeedupEST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SpeedupEST()
	}
}

// BenchmarkTable3_SpeedupLarge regenerates the large-bank speed-up
// table (six pairs, both engines).
func BenchmarkTable3_SpeedupLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SpeedupLarge()
	}
}

// BenchmarkTable4_SensitivityESTScorisMiss and the three benchmarks
// after it regenerate the four sensitivity tables. T4/T5 come from the
// same runs (two directions of one comparison), as in the paper, so the
// harness method emits both; the benchmarks keep separate names so each
// paper artefact has its regeneration entry point.
func BenchmarkTable4_SensitivityESTScorisMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SensitivityEST()
	}
}

// BenchmarkTable5_SensitivityESTBlastMiss regenerates T5 (the BLASTmiss
// direction of the EST sensitivity comparison).
func BenchmarkTable5_SensitivityESTBlastMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SensitivityEST()
	}
}

// BenchmarkTable6_SensitivityLargeScorisMiss regenerates T6.
func BenchmarkTable6_SensitivityLargeScorisMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SensitivityLarge()
	}
}

// BenchmarkTable7_SensitivityLargeBlastMiss regenerates T7.
func BenchmarkTable7_SensitivityLargeBlastMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SensitivityLarge()
	}
}

// BenchmarkAblation_Asymmetric10 regenerates X1 (§3.4 half-word
// indexing).
func BenchmarkAblation_Asymmetric10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.Asymmetric()
	}
}

// BenchmarkAblation_ParallelStep2 regenerates X2 (§4 parallelism).
func BenchmarkAblation_ParallelStep2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.Parallel()
	}
}

// BenchmarkAblation_OrderedRule regenerates A1 (the ordered-seed rule
// against naive enumeration + dedup).
func BenchmarkAblation_OrderedRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.OrderedRule()
	}
}

// BenchmarkAblation_WSweep regenerates A2 (seed length 9–13).
func BenchmarkAblation_WSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.WSweep()
	}
}

// BenchmarkAblation_DustFilter regenerates A3 (low-complexity filter
// on/off).
func BenchmarkAblation_DustFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.Dust()
	}
}

// BenchmarkAblation_SeedOrder regenerates A4 (ascending vs shuffled
// seed enumeration).
func BenchmarkAblation_SeedOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.SeedOrder()
	}
}

// BenchmarkExp_ThreeWayEngines regenerates E1 (ORIS vs classic BLASTN
// vs BLAT-style tile index).
func BenchmarkExp_ThreeWayEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.New(benchConfig())
		h.ThreeWay()
	}
}

// BenchmarkEngine_ScorisOnePair measures the ORIS engine alone on one
// mid-size EST pair — the per-run cost underlying every table row.
func BenchmarkEngine_ScorisOnePair(b *testing.B) {
	ds := simulate.NewDataSet(BenchScale)
	a, q := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	opt := core.DefaultOptions()
	opt.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compare(a, q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_BlastnOnePair is the baseline counterpart.
func BenchmarkEngine_BlastnOnePair(b *testing.B) {
	ds := simulate.NewDataSet(BenchScale)
	a, q := ds.Get(simulate.EST3), ds.Get(simulate.EST4)
	opt := blastn.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blastn.Compare(a, q, opt); err != nil {
			b.Fatal(err)
		}
	}
}
