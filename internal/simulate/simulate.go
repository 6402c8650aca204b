// Package simulate generates the synthetic DNA banks that stand in for
// the paper's GenBank data sets (§3.2: EST1–EST7 sampled from the
// GenBank EST division, the gbvrl1 virus division, miscellaneous
// bacterial genomes, and human chromosomes 10 and 19).
//
// The substitution is documented in DESIGN.md §3: what drives both the
// paper's speed-up curves and its sensitivity tables is the *structure*
// of the banks — many short reads vs. few long genomic sequences, and
// the density of diverged homologies between bank pairs — not the
// literal GenBank bases. The generator reproduces that structure
// deterministically:
//
//   - a shared "gene pool" of ancestral segments models the fact that
//     GenBank EST banks sampled at random share many transcripts;
//   - each EST read is a mutated (substitutions + indels) window of a
//     pool gene over a random background, so alignments of every
//     quality exist, including the borderline-E-value ones that cause
//     the paper's ~3% cross-engine disagreement;
//   - genomic banks carry repeat families and low-complexity tracts so
//     the dust filter and the repeat discussion of §4 are exercised.
//
// All generation is driven by explicit seeds: the same Spec always
// yields byte-identical banks.
package simulate

import (
	"fmt"
	"math/rand"

	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/fasta"
)

// letters used for synthesis.
var letters = []byte("ACGT")

// Pool is a shared set of ancestral gene segments that related banks
// sample from.
type Pool struct {
	Genes [][]byte
	rng   *rand.Rand
}

// NewPool creates a deterministic gene pool. meanLen is the mean gene
// length; lengths vary ±50%.
func NewPool(seed int64, nGenes, meanLen int) *Pool {
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{rng: rng}
	for i := 0; i < nGenes; i++ {
		l := meanLen/2 + rng.Intn(meanLen)
		g := make([]byte, l)
		for j := range g {
			g[j] = letters[rng.Intn(4)]
		}
		p.Genes = append(p.Genes, g)
	}
	return p
}

// Mutation rates for derived copies.
type Mutation struct {
	// Sub is the per-base substitution probability.
	Sub float64
	// Indel is the per-base probability of an insertion or deletion
	// (split evenly).
	Indel float64
}

// mutate applies substitutions and indels to a template.
func mutate(rng *rand.Rand, tpl []byte, mut Mutation) []byte {
	out := make([]byte, 0, len(tpl)+8)
	for _, c := range tpl {
		r := rng.Float64()
		switch {
		case r < mut.Indel/2: // deletion
		case r < mut.Indel: // insertion
			out = append(out, c, letters[rng.Intn(4)])
		case r < mut.Indel+mut.Sub:
			out = append(out, letters[rng.Intn(4)])
		default:
			out = append(out, c)
		}
	}
	return out
}

func randSeq(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return b
}

// ESTSpec describes an EST-division-like bank: many short reads, a
// fraction of which carry (possibly partial) diverged copies of pool
// genes.
type ESTSpec struct {
	Name string
	Seed int64
	// NumSeqs and MeanLen set the bank shape (paper EST banks average
	// ~450-600 nt per read).
	NumSeqs int
	MeanLen int
	// GeneFraction of reads embed a pool-gene window; the rest are
	// random background.
	GeneFraction float64
	// Mut diversifies embedded gene copies.
	Mut Mutation
	// PolyATailFraction of reads get a poly-A tail, as real ESTs do;
	// exercises the dust filter.
	PolyATailFraction float64
	// ReverseFraction of reads are emitted as the reverse complement of
	// their generated sequence, as real EST runs mix orientations. The
	// paper's single-strand prototype misses these; the BothStrands
	// option recovers them.
	ReverseFraction float64
}

// EST generates an EST-like bank from the shared pool.
func EST(spec ESTSpec, pool *Pool) *bank.Bank {
	rng := rand.New(rand.NewSource(spec.Seed))
	recs := make([]*fasta.Record, 0, spec.NumSeqs)
	for i := 0; i < spec.NumSeqs; i++ {
		l := spec.MeanLen/2 + rng.Intn(spec.MeanLen)
		var seq []byte
		if rng.Float64() < spec.GeneFraction && len(pool.Genes) > 0 {
			g := pool.Genes[rng.Intn(len(pool.Genes))]
			// A window of the gene, possibly the whole gene.
			wl := l
			if wl > len(g) {
				wl = len(g)
			}
			off := 0
			if len(g) > wl {
				off = rng.Intn(len(g) - wl)
			}
			seq = mutate(rng, g[off:off+wl], spec.Mut)
			// Pad with background if the read is longer than the gene.
			if len(seq) < l {
				seq = append(seq, randSeq(rng, l-len(seq))...)
			}
		} else {
			seq = randSeq(rng, l)
		}
		if rng.Float64() < spec.PolyATailFraction {
			tail := make([]byte, 8+rng.Intn(25))
			for j := range tail {
				tail[j] = 'A'
			}
			seq = append(seq, tail...)
		}
		// The short-circuit matters: an unused feature must not consume
		// a random draw, or enabling it would reshuffle every bank
		// generated after this point (and the recorded tables would stop
		// matching EXPERIMENTS.md).
		if spec.ReverseFraction > 0 && rng.Float64() < spec.ReverseFraction {
			seq = dna.Decode(dna.ReverseComplement(dna.Encode(seq)))
		}
		recs = append(recs, &fasta.Record{
			ID:  fmt.Sprintf("%s_%06d", spec.Name, i),
			Seq: seq,
		})
	}
	return bank.New(spec.Name, recs)
}

// GenomicSpec describes a genomic bank: few long sequences with repeat
// families, low-complexity tracts, and optional diverged pool genes
// embedded (so cross-bank homologies exist).
type GenomicSpec struct {
	Name string
	Seed int64
	// NumSeqs long sequences of ~SeqLen bases each.
	NumSeqs int
	SeqLen  int
	// RepeatFamilies distinct repeat units are created; each is
	// stamped RepeatCopies times across the bank with light mutation.
	RepeatFamilies int
	RepeatUnitLen  int
	RepeatCopies   int
	// GeneDensity is the expected number of embedded pool genes per
	// 100 kb.
	GeneDensity float64
	// Mut diversifies embedded genes and repeat copies.
	Mut Mutation
	// LowComplexity tracts (poly-A / dinucleotide) per 100 kb.
	LowComplexityDensity float64
}

// Genomic generates a genomic bank.
func Genomic(spec GenomicSpec, pool *Pool) *bank.Bank {
	rng := rand.New(rand.NewSource(spec.Seed))

	// Repeat family units.
	units := make([][]byte, spec.RepeatFamilies)
	for i := range units {
		units[i] = randSeq(rng, spec.RepeatUnitLen)
	}

	recs := make([]*fasta.Record, 0, spec.NumSeqs)
	for i := 0; i < spec.NumSeqs; i++ {
		seq := randSeq(rng, spec.SeqLen)
		// Stamp repeat copies.
		if spec.RepeatFamilies > 0 {
			for c := 0; c < spec.RepeatCopies; c++ {
				u := mutate(rng, units[rng.Intn(len(units))], spec.Mut)
				if len(u) >= len(seq) {
					continue
				}
				pos := rng.Intn(len(seq) - len(u))
				copy(seq[pos:], u)
			}
		}
		// Embed diverged pool genes.
		nGenes := int(spec.GeneDensity * float64(spec.SeqLen) / 100000)
		for g := 0; g < nGenes && len(pool.Genes) > 0; g++ {
			gene := mutate(rng, pool.Genes[rng.Intn(len(pool.Genes))], spec.Mut)
			if len(gene) >= len(seq) {
				continue
			}
			pos := rng.Intn(len(seq) - len(gene))
			copy(seq[pos:], gene)
		}
		// Low-complexity tracts.
		nTracts := int(spec.LowComplexityDensity * float64(spec.SeqLen) / 100000)
		for t := 0; t < nTracts; t++ {
			tl := 20 + rng.Intn(80)
			if tl >= len(seq) {
				continue
			}
			pos := rng.Intn(len(seq) - tl)
			switch rng.Intn(3) {
			case 0: // homopolymer
				c := letters[rng.Intn(4)]
				for k := 0; k < tl; k++ {
					seq[pos+k] = c
				}
			case 1: // dinucleotide
				a, b := letters[rng.Intn(4)], letters[rng.Intn(4)]
				for k := 0; k < tl; k++ {
					if k%2 == 0 {
						seq[pos+k] = a
					} else {
						seq[pos+k] = b
					}
				}
			default: // trinucleotide
				u := randSeq(rng, 3)
				for k := 0; k < tl; k++ {
					seq[pos+k] = u[k%3]
				}
			}
		}
		recs = append(recs, &fasta.Record{
			ID:  fmt.Sprintf("%s_chr%02d", spec.Name, i+1),
			Seq: seq,
		})
	}
	return bank.New(spec.Name, recs)
}

// PaperBank identifies one of the §3.2 data-set banks.
type PaperBank string

// The paper's banks.
const (
	EST1 PaperBank = "EST1"
	EST2 PaperBank = "EST2"
	EST3 PaperBank = "EST3"
	EST4 PaperBank = "EST4"
	EST5 PaperBank = "EST5"
	EST6 PaperBank = "EST6"
	EST7 PaperBank = "EST7"
	VRL  PaperBank = "VRL"
	BCT  PaperBank = "BCT"
	H10  PaperBank = "H10"
	H19  PaperBank = "H19"
)

// AllPaperBanks lists the banks in the paper's table order.
var AllPaperBanks = []PaperBank{EST1, EST2, EST3, EST4, EST5, EST6, EST7, VRL, BCT, H10, H19}

// paperShape captures the paper's data-set table (nb. seq, Mbp); the
// generator reproduces these shapes scaled by 1/Scale.
var paperShape = map[PaperBank]struct {
	numSeqs int
	mbp     float64
}{
	EST1: {13013, 6.44},
	EST2: {11220, 6.65},
	EST3: {37483, 14.64},
	EST4: {34902, 14.87},
	EST5: {50537, 25.48},
	EST6: {53550, 25.20},
	EST7: {88452, 40.08},
	VRL:  {72113, 65.84},
	BCT:  {59, 98.10},
	H10:  {19, 131.73},
	H19:  {6, 56.03},
}

// PaperShape exposes the paper's (#sequences, Mbp) for a bank.
func PaperShape(b PaperBank) (numSeqs int, mbp float64) {
	s := paperShape[b]
	return s.numSeqs, s.mbp
}

// DataSet generates every paper bank at the given scale divisor
// (Scale=16 → a 6.44 Mbp bank becomes ~0.40 Mbp with 1/16 the reads).
// Banks share one gene pool so EST×EST, ×VRL and ×chromosome pairs all
// have homologies, mirroring the paper's non-empty result tables — and
// H10×BCT stays (nearly) empty by giving BCT its own pool, matching the
// paper's 0-alignment row.
type DataSet struct {
	Scale int
	Banks map[PaperBank]*bank.Bank
}

// NewDataSet generates all banks deterministically.
func NewDataSet(scale int) *DataSet {
	if scale < 1 {
		scale = 1
	}
	sharedPool := NewPool(1001, 400, 900)
	bctPool := NewPool(2002, 200, 900)

	ds := &DataSet{Scale: scale, Banks: map[PaperBank]*bank.Bank{}}

	estMut := Mutation{Sub: 0.035, Indel: 0.004}
	for i, pb := range []PaperBank{EST1, EST2, EST3, EST4, EST5, EST6, EST7} {
		shape := paperShape[pb]
		n := shape.numSeqs / scale
		if n < 10 {
			n = 10
		}
		meanLen := int(shape.mbp * 1e6 / float64(shape.numSeqs))
		ds.Banks[pb] = EST(ESTSpec{
			Name:              string(pb),
			Seed:              3000 + int64(i),
			NumSeqs:           n,
			MeanLen:           meanLen,
			GeneFraction:      0.45,
			Mut:               estMut,
			PolyATailFraction: 0.15,
		}, sharedPool)
	}

	// VRL: mid-length viral sequences, moderate pool sharing.
	{
		shape := paperShape[VRL]
		n := shape.numSeqs / scale
		if n < 10 {
			n = 10
		}
		meanLen := int(shape.mbp * 1e6 / float64(shape.numSeqs))
		ds.Banks[VRL] = EST(ESTSpec{
			Name:         string(VRL),
			Seed:         4001,
			NumSeqs:      n,
			MeanLen:      meanLen,
			GeneFraction: 0.25,
			Mut:          Mutation{Sub: 0.06, Indel: 0.006},
		}, sharedPool)
	}

	// BCT: few long bacterial genomes from a PRIVATE pool, so H10×BCT
	// reproduces the paper's empty table row.
	{
		shape := paperShape[BCT]
		n := shape.numSeqs
		if n > 6 {
			n = 6
		}
		ds.Banks[BCT] = Genomic(GenomicSpec{
			Name:                 string(BCT),
			Seed:                 5001,
			NumSeqs:              n,
			SeqLen:               int(shape.mbp * 1e6 / float64(n) / float64(scale)),
			RepeatFamilies:       6,
			RepeatUnitLen:        600,
			RepeatCopies:         30 / n,
			GeneDensity:          1.2,
			Mut:                  Mutation{Sub: 0.05, Indel: 0.005},
			LowComplexityDensity: 2,
		}, bctPool)
	}

	// Human chromosomes: long sequences sharing the main pool (so
	// H10/H19 × VRL reproduce the paper's large result counts).
	for i, pb := range []PaperBank{H10, H19} {
		shape := paperShape[pb]
		n := shape.numSeqs
		if n > 4 {
			n = 4
		}
		ds.Banks[pb] = Genomic(GenomicSpec{
			Name:                 string(pb),
			Seed:                 6001 + int64(i),
			NumSeqs:              n,
			SeqLen:               int(shape.mbp * 1e6 / float64(n) / float64(scale)),
			RepeatFamilies:       10,
			RepeatUnitLen:        300,
			RepeatCopies:         60 / n,
			GeneDensity:          2.5,
			Mut:                  Mutation{Sub: 0.045, Indel: 0.004},
			LowComplexityDensity: 3,
		}, sharedPool)
	}
	return ds
}

// Get returns a generated bank.
func (d *DataSet) Get(b PaperBank) *bank.Bank { return d.Banks[b] }
