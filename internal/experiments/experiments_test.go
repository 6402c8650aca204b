package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/simulate"
)

// A heavily scaled-down harness keeps these tests fast while still
// exercising every code path end to end.
func tinyHarness(out *bytes.Buffer) *Harness {
	return New(Config{Scale: 128, Workers: 1, Out: out})
}

func TestRunPairProducesSaneRow(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	r := h.RunPair(Pair{simulate.EST1, simulate.EST2})
	if r.SearchSpace <= 0 {
		t.Errorf("search space %v", r.SearchSpace)
	}
	if r.ScorisTime <= 0 || r.BlastTime <= 0 {
		t.Errorf("times not measured: %v %v", r.ScorisTime, r.BlastTime)
	}
	if r.Sens.SCTotal == 0 || r.Sens.BLTotal == 0 {
		t.Errorf("no alignments found: %+v", r.Sens)
	}
	// The paper's central sensitivity claim, at any scale: both engines
	// agree on the vast majority of alignments.
	if r.Sens.SCORISMissPct() > 15 || r.Sens.BLASTMissPct() > 15 {
		t.Errorf("excessive cross-engine misses: %+v", r.Sens)
	}
}

func TestRunPairCached(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	p := Pair{simulate.EST1, simulate.EST2}
	r1 := h.RunPair(p)
	r2 := h.RunPair(p)
	if r1 != r2 {
		t.Error("RunPair did not cache")
	}
}

// TestIndexBuiltOncePerBankAcrossPairs is the acceptance assertion of
// the prepared-bank subsystem: a multi-pair workload sharing a subject
// bank builds each (bank, options) index exactly once for the life of
// the harness, however many rows reference it.
func TestIndexBuiltOncePerBankAcrossPairs(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.RunPair(Pair{simulate.EST1, simulate.EST2})
	h.RunPair(Pair{simulate.EST1, simulate.EST3})
	h.RunPair(Pair{simulate.EST1, simulate.EST5})
	c := h.IndexCache()
	if got := c.Builds(); got != 4 {
		t.Errorf("builds = %d, want 4 (EST1, EST2, EST3, EST5 once each)", got)
	}
	if got := c.Lookups(); got != 6 {
		t.Errorf("lookups = %d, want 6 (two per pair)", got)
	}
	// The ablations on an already-seen pair add only the option
	// variants they introduce, never a rebuild of an existing key:
	// A1 (ordered on/off) uses the default options twice — zero new
	// builds; A4 likewise runs EST3/EST4 with default options.
	h.OrderedRule() // EST1 vs EST2, default options again
	if got := c.Builds(); got != 4 {
		t.Errorf("A1 rebuilt a cached index: builds = %d, want 4", got)
	}
}

func TestDatasetsTable(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.Datasets()
	out := buf.String()
	for _, pb := range simulate.AllPaperBanks {
		if !strings.Contains(out, "| "+string(pb)+" |") {
			t.Errorf("bank %s missing from T1:\n%s", pb, out)
		}
	}
}

func TestSpeedupTableFormat(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	// Run only the first pair through the table helper to stay fast.
	h.speedupTable("T2 test", []Pair{{simulate.EST1, simulate.EST2}})
	out := buf.String()
	if !strings.Contains(out, "EST1 vs EST2") || !strings.Contains(out, "speed-up") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestSensitivityTableFormat(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.sensTables("T4 test", []Pair{{simulate.EST1, simulate.EST2}})
	out := buf.String()
	if !strings.Contains(out, "SCORISmiss") || !strings.Contains(out, "BLASTmiss") {
		t.Errorf("sensitivity tables malformed:\n%s", out)
	}
}

func TestAsymmetricExperiment(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.Asymmetric()
	out := buf.String()
	if !strings.Contains(out, "W=10 asymmetric") {
		t.Errorf("X1 output malformed:\n%s", out)
	}
	// §3.4's claim: 100% of 11-mer anchors covered.
	if !strings.Contains(out, "(100.00 %)") {
		t.Errorf("11-mer coverage should be 100%%:\n%s", out)
	}
}

func TestOrderedRuleExperiment(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.OrderedRule()
	out := buf.String()
	if !strings.Contains(out, "ordered (ORIS)") || !strings.Contains(out, "naive + dedup") {
		t.Errorf("A1 output malformed:\n%s", out)
	}
}

func TestCheckShapesOnTinyRun(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.RunPair(Pair{simulate.EST1, simulate.EST2})
	finds := h.CheckShapes()
	if len(finds) == 0 {
		t.Fatal("no shape checks ran")
	}
	for _, f := range finds {
		if strings.HasPrefix(f, "[FAIL]") {
			// At scale 128 the speed-up claim can be noisy; log rather
			// than fail for the speed claims, but sensitivity claims
			// must hold.
			if strings.Contains(f, "miss") {
				t.Errorf("sensitivity shape failed: %s", f)
			} else {
				t.Logf("non-fatal at tiny scale: %s", f)
			}
		}
	}
}

func TestSeedOrderExperiment(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.SeedOrder()
	out := buf.String()
	if !strings.Contains(out, "ascending (ORIS)") || !strings.Contains(out, "shuffled") {
		t.Errorf("A4 output malformed:\n%s", out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("enumeration order changed the result:\n%s", out)
	}
}

func TestThreeWayExperiment(t *testing.T) {
	var buf bytes.Buffer
	h := tinyHarness(&buf)
	h.threeWayPair(Pair{simulate.EST1, simulate.EST2})
	out := buf.String()
	for _, want := range []string{"BLASTN (classic scan)", "SCORIS-N (ORIS)", "BLAT-style (tile index)"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 missing row %q:\n%s", want, out)
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	h := New(Config{})
	if h.cfg.Scale != 16 || h.cfg.Workers != 1 || h.cfg.Out == nil {
		t.Errorf("New normalization: %+v", h.cfg)
	}
}
