package simulate

import (
	"bytes"
	"testing"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/dust"
)

func TestPoolDeterministic(t *testing.T) {
	a := NewPool(7, 10, 500)
	b := NewPool(7, 10, 500)
	if len(a.Genes) != len(b.Genes) {
		t.Fatal("pool sizes differ")
	}
	for i := range a.Genes {
		if !bytes.Equal(a.Genes[i], b.Genes[i]) {
			t.Fatalf("gene %d differs", i)
		}
	}
	c := NewPool(8, 10, 500)
	same := true
	for i := range a.Genes {
		if len(a.Genes[i]) != len(c.Genes[i]) || !bytes.Equal(a.Genes[i], c.Genes[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical pools")
	}
}

func TestESTBankShape(t *testing.T) {
	pool := NewPool(1, 50, 800)
	spec := ESTSpec{Name: "E", Seed: 2, NumSeqs: 200, MeanLen: 500, GeneFraction: 0.5,
		Mut: Mutation{Sub: 0.03, Indel: 0.004}, PolyATailFraction: 0.2}
	b := EST(spec, pool)
	if b.NumSeqs() != 200 {
		t.Fatalf("NumSeqs = %d", b.NumSeqs())
	}
	mean := float64(b.TotalBases()) / float64(b.NumSeqs())
	if mean < 300 || mean > 800 {
		t.Errorf("mean read length %v outside expected range", mean)
	}
}

func TestESTDeterministic(t *testing.T) {
	pool := NewPool(1, 20, 600)
	spec := ESTSpec{Name: "E", Seed: 3, NumSeqs: 50, MeanLen: 400, GeneFraction: 0.5,
		Mut: Mutation{Sub: 0.03, Indel: 0.004}}
	a := EST(spec, pool)
	pool2 := NewPool(1, 20, 600)
	b := EST(spec, pool2)
	if !bytes.Equal(a.Data, b.Data) {
		t.Error("EST generation not deterministic")
	}
}

func TestGenomicBankShape(t *testing.T) {
	pool := NewPool(1, 30, 700)
	g := Genomic(GenomicSpec{
		Name: "G", Seed: 4, NumSeqs: 3, SeqLen: 50000,
		RepeatFamilies: 4, RepeatUnitLen: 400, RepeatCopies: 10,
		GeneDensity: 2, Mut: Mutation{Sub: 0.04, Indel: 0.004},
		LowComplexityDensity: 3,
	}, pool)
	if g.NumSeqs() != 3 {
		t.Fatalf("NumSeqs = %d", g.NumSeqs())
	}
	if g.TotalBases() != 150000 {
		t.Errorf("TotalBases = %d", g.TotalBases())
	}
}

func TestGenomicHasLowComplexityTracts(t *testing.T) {
	pool := NewPool(1, 5, 500)
	g := Genomic(GenomicSpec{
		Name: "G", Seed: 5, NumSeqs: 1, SeqLen: 100000,
		LowComplexityDensity: 10, Mut: Mutation{Sub: 0.02, Indel: 0.002},
	}, pool)
	frac := dust.MaskedFraction(g.SeqCodes(0))
	if frac < 0.005 {
		t.Errorf("masked fraction %v too low; tracts missing", frac)
	}
}

func TestSharedPoolProducesCrossBankHomology(t *testing.T) {
	pool := NewPool(42, 40, 800)
	spec := ESTSpec{Name: "A", Seed: 10, NumSeqs: 120, MeanLen: 500, GeneFraction: 0.6,
		Mut: Mutation{Sub: 0.035, Indel: 0.004}}
	a := EST(spec, pool)
	spec.Name, spec.Seed = "B", 11
	b := EST(spec, pool)
	res, err := core.Compare(a, b, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) < 20 {
		t.Errorf("shared pool yielded only %d alignments", len(res.Alignments))
	}
}

func TestPrivatePoolsProduceNoHomology(t *testing.T) {
	poolA := NewPool(1, 30, 700)
	poolB := NewPool(2, 30, 700)
	spec := ESTSpec{Name: "A", Seed: 20, NumSeqs: 80, MeanLen: 500, GeneFraction: 0.6,
		Mut: Mutation{Sub: 0.035, Indel: 0.004}}
	a := EST(spec, poolA)
	spec.Name, spec.Seed = "B", 21
	b := EST(spec, poolB)
	res, err := core.Compare(a, b, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) > 2 {
		t.Errorf("private pools yielded %d alignments, want ~0", len(res.Alignments))
	}
}

func TestDataSetShapesMatchPaperTable(t *testing.T) {
	const scale = 64
	ds := NewDataSet(scale)
	for _, pb := range AllPaperBanks {
		b := ds.Get(pb)
		if b == nil {
			t.Fatalf("bank %s missing", pb)
		}
		_, wantMbp := PaperShape(pb)
		got := b.Mbp() * float64(scale)
		// Genomic banks cap sequence counts, so sizes are approximate;
		// within 40% of the scaled paper value is structurally faithful.
		if got < wantMbp*0.6 || got > wantMbp*1.4 {
			t.Errorf("%s: scaled size %.2f Mbp vs paper %.2f Mbp", pb, got, wantMbp)
		}
	}
	// EST banks must keep the paper's many-short-reads shape, genomic
	// banks the few-long-sequences shape.
	if ds.Get(EST1).NumSeqs() < 100 {
		t.Errorf("EST1 has %d seqs at scale %d", ds.Get(EST1).NumSeqs(), scale)
	}
	if ds.Get(H10).NumSeqs() > 20 {
		t.Errorf("H10 has %d seqs, want few long sequences", ds.Get(H10).NumSeqs())
	}
	if ds.Get(BCT).NumSeqs() > 10 {
		t.Errorf("BCT has %d seqs", ds.Get(BCT).NumSeqs())
	}
}

func TestDataSetDeterministic(t *testing.T) {
	a := NewDataSet(128)
	b := NewDataSet(128)
	for _, pb := range AllPaperBanks {
		if !bytes.Equal(a.Get(pb).Data, b.Get(pb).Data) {
			t.Errorf("bank %s not deterministic", pb)
		}
	}
}

func TestBanksAreCleanDNA(t *testing.T) {
	ds := NewDataSet(128)
	for _, pb := range AllPaperBanks {
		b := ds.Get(pb)
		for i := 0; i < b.NumSeqs(); i++ {
			for _, c := range b.SeqCodes(i) {
				if !dna.IsValid(c) {
					t.Fatalf("%s seq %d contains non-ACGT code %#x", pb, i, c)
				}
			}
		}
	}
}

func TestH10xBCTStaysEmpty(t *testing.T) {
	// The paper's sensitivity table has 0 alignments for H10 vs BCT;
	// the private BCT pool must reproduce that.
	ds := NewDataSet(64)
	res, err := core.Compare(ds.Get(H10), ds.Get(BCT), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) > 3 {
		t.Errorf("H10×BCT yielded %d alignments, paper reports 0", len(res.Alignments))
	}
}

// Mixed-orientation EST banks: single-strand search misses the
// reversed reads; BothStrands recovers them (the §4 strand feature).
func TestReverseFractionNeedsBothStrands(t *testing.T) {
	pool := NewPool(77, 60, 800)
	mut := Mutation{Sub: 0.03, Indel: 0.003}
	db := EST(ESTSpec{Name: "db", Seed: 70, NumSeqs: 150, MeanLen: 500,
		GeneFraction: 0.7, Mut: mut}, pool)
	mixed := EST(ESTSpec{Name: "mixed", Seed: 71, NumSeqs: 150, MeanLen: 500,
		GeneFraction: 0.7, Mut: mut, ReverseFraction: 0.5}, pool)

	plusOpt := core.DefaultOptions()
	plus, err := core.Compare(db, mixed, plusOpt)
	if err != nil {
		t.Fatal(err)
	}
	bothOpt := core.DefaultOptions()
	bothOpt.Strand = core.BothStrands
	both, err := core.Compare(db, mixed, bothOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Alignments) <= len(plus.Alignments) {
		t.Errorf("both strands found %d alignments, plus-only %d; reversed reads not recovered",
			len(both.Alignments), len(plus.Alignments))
	}
	minus := 0
	for _, a := range both.Alignments {
		if a.Minus {
			minus++
		}
	}
	if minus == 0 {
		t.Error("no minus-strand alignments reported")
	}
	// Roughly half the homologous reads are reversed; expect a
	// substantial minus fraction, not a token one.
	if float64(minus) < 0.2*float64(len(both.Alignments)) {
		t.Errorf("minus fraction suspiciously low: %d of %d", minus, len(both.Alignments))
	}
}

func TestMutationRatesRespected(t *testing.T) {
	// A heavily mutated copy should diverge; a lightly mutated one
	// should stay nearly  identical. Identity measured via alignment.
	pool := NewPool(9, 1, 2000)
	mkBankFromGene := func(name string, mut Mutation, seedVal int64) *bank.Bank {
		spec := ESTSpec{Name: name, Seed: seedVal, NumSeqs: 1, MeanLen: 1900,
			GeneFraction: 1.0, Mut: mut}
		return EST(spec, pool)
	}
	orig := mkBankFromGene("o", Mutation{}, 30)
	light := mkBankFromGene("l", Mutation{Sub: 0.02, Indel: 0.002}, 31)
	res, err := core.Compare(orig, light, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alignments) == 0 {
		t.Fatal("no alignment between original and light copy")
	}
	if id := res.Alignments[0].Identity(); id < 0.93 {
		t.Errorf("light mutation identity %v, want ≥ 0.93", id)
	}
}
