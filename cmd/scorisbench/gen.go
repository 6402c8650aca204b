package main

import (
	"bytes"
	"fmt"
	"math/rand"
)

// The benchmark makes its own banks, as FASTA text, from the seed
// alone. It does not use internal/simulate: the inputs must be the
// same bytes on every commit the benchmark is run against, so they
// cannot depend on code a later change may edit. The shapes follow
// simulate's (and through it the paper's §3.2 data sets): EST-like
// banks of many short reads that embed diverged windows of a shared
// gene pool, and genomic banks of a few long sequences with private
// repeat families, low-complexity tracts and embedded pool genes.

var letters = []byte("ACGT")

type record struct {
	id  string
	seq []byte
}

func randSeq(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return b
}

// mutate copies tpl with per-base substitution probability sub and
// insertion-or-deletion probability indel (split evenly).
func mutate(rng *rand.Rand, tpl []byte, sub, indel float64) []byte {
	out := make([]byte, 0, len(tpl)+8)
	for _, c := range tpl {
		r := rng.Float64()
		switch {
		case r < indel/2:
		case r < indel:
			out = append(out, c, letters[rng.Intn(4)])
		case r < indel+sub:
			out = append(out, letters[rng.Intn(4)])
		default:
			out = append(out, c)
		}
	}
	return out
}

// newPool returns n ancestral genes of mean length meanLen (±50 %).
func newPool(rng *rand.Rand, n, meanLen int) [][]byte {
	genes := make([][]byte, n)
	for i := range genes {
		genes[i] = randSeq(rng, meanLen/2+rng.Intn(meanLen))
	}
	return genes
}

// estSpec shapes an EST-like bank.
type estSpec struct {
	prefix   string
	numSeqs  int
	meanLen  int
	geneFrac float64 // share of reads that embed a pool-gene window
}

const (
	estSub, estIndel = 0.035, 0.004
	polyATailShare   = 0.15
)

// dealer hands out pool genes in a seeded order, round and round, so
// that the banks dealt from it use every gene equally often. What an
// op costs depends on how many reads of the two banks share a gene;
// with genes drawn independently that number would swing by several
// percent from seed to seed, and the benchmark would measure the draw.
type dealer struct {
	pool  [][]byte
	order []int
	next  int
}

func newDealer(rng *rand.Rand, pool [][]byte) *dealer {
	return &dealer{pool: pool, order: rng.Perm(len(pool))}
}

func (d *dealer) deal() []byte {
	g := d.pool[d.order[d.next%len(d.order)]]
	d.next++
	return g
}

// estReads makes an EST-like bank. Reads that carry a gene window are
// spaced evenly through the bank, for the same reason the genes are
// dealt: their number is then the same for every seed.
func estReads(rng *rand.Rand, spec estSpec, genes *dealer) []record {
	recs := make([]record, spec.numSeqs)
	for i := range recs {
		l := spec.meanLen/2 + rng.Intn(spec.meanLen)
		var seq []byte
		if int(float64(i+1)*spec.geneFrac) > int(float64(i)*spec.geneFrac) {
			g := genes.deal()
			wl := min(l, len(g))
			off := 0
			if len(g) > wl {
				off = rng.Intn(len(g) - wl)
			}
			seq = mutate(rng, g[off:off+wl], estSub, estIndel)
			if len(seq) < l {
				seq = append(seq, randSeq(rng, l-len(seq))...)
			}
		} else {
			seq = randSeq(rng, l)
		}
		if rng.Float64() < polyATailShare {
			seq = append(seq, bytes.Repeat([]byte("A"), 8+rng.Intn(25))...)
		}
		recs[i] = record{id: fmt.Sprintf("%s_%06d", spec.prefix, i), seq: seq}
	}
	return recs
}

// genomicSpec shapes a genomic bank. Repeat families are drawn from
// the bank's own random stream, so they are private to it.
type genomicSpec struct {
	prefix       string
	numSeqs      int
	seqLen       int
	families     int
	unitLen      int
	copies       int     // repeat copies stamped per sequence
	genesPer100k float64 // embedded pool genes per 100 kb
	lowPer100k   float64 // low-complexity tracts per 100 kb
}

const genomicSub, genomicIndel = 0.045, 0.004

func genomicSeqs(rng *rand.Rand, spec genomicSpec, genes *dealer) []record {
	units := make([][]byte, spec.families)
	for i := range units {
		units[i] = randSeq(rng, spec.unitLen)
	}
	stamp := func(seq, piece []byte) {
		if len(piece) < len(seq) {
			copy(seq[rng.Intn(len(seq)-len(piece)):], piece)
		}
	}
	recs := make([]record, spec.numSeqs)
	for i := range recs {
		seq := randSeq(rng, spec.seqLen)
		for c := 0; c < spec.copies && len(units) > 0; c++ {
			stamp(seq, mutate(rng, units[rng.Intn(len(units))], genomicSub, genomicIndel))
		}
		for g := int(spec.genesPer100k * float64(spec.seqLen) / 1e5); g > 0; g-- {
			stamp(seq, mutate(rng, genes.deal(), genomicSub, genomicIndel))
		}
		for t := int(spec.lowPer100k * float64(spec.seqLen) / 1e5); t > 0; t-- {
			unit := randSeq(rng, 1+rng.Intn(3))
			stamp(seq, bytes.Repeat(unit, (20+rng.Intn(80))/len(unit)))
		}
		recs[i] = record{id: fmt.Sprintf("%s_chr%02d", spec.prefix, i+1), seq: seq}
	}
	return recs
}

// fastaText renders records as FASTA with 70-column sequence lines.
func fastaText(recs []record) []byte {
	var b bytes.Buffer
	for _, r := range recs {
		b.WriteByte('>')
		b.WriteString(r.id)
		b.WriteByte('\n')
		for off := 0; off < len(r.seq); off += 70 {
			b.Write(r.seq[off:min(off+70, len(r.seq))])
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func totalBases(recs []record) int {
	n := 0
	for _, r := range recs {
		n += len(r.seq)
	}
	return n
}

// sizes holds every bank dimension of the five workloads. The full
// values are the benchmark; smoke values only prove the plumbing.
type sizes struct {
	poolGenes, poolGeneLen int

	estDBSeqs, estQuerySeqs, estLen int
	estGeneFrac                     float64

	storeDBSeqs, storeQuerySeqs int
	storeGrowShare              float64

	genomicBanks, genomicSeqs, genomicSeqLen int
	genomicPoolGenes                         int

	churnDBSeqs, churnPool, churnReads int

	fleetDBSeqs, fleetQueries, fleetReads int
}

var fullSizes = sizes{
	poolGenes: 400, poolGeneLen: 900,
	estDBSeqs: 3000, estQuerySeqs: 1000, estLen: 450, estGeneFrac: 0.7,
	storeDBSeqs: 5500, storeQuerySeqs: 64, storeGrowShare: 0.05,
	genomicBanks: 4, genomicSeqs: 3, genomicSeqLen: 700_000, genomicPoolGenes: 120,
	churnDBSeqs: 3100, churnPool: 64, churnReads: 16,
	fleetDBSeqs: 1500, fleetQueries: 8, fleetReads: 16,
}

var smokeSizes = sizes{
	poolGenes: 40, poolGeneLen: 900,
	estDBSeqs: 150, estQuerySeqs: 50, estLen: 450, estGeneFrac: 0.7,
	storeDBSeqs: 200, storeQuerySeqs: 8, storeGrowShare: 0.05,
	genomicBanks: 3, genomicSeqs: 2, genomicSeqLen: 40_000, genomicPoolGenes: 30,
	churnDBSeqs: 150, churnPool: 8, churnReads: 4,
	fleetDBSeqs: 100, fleetQueries: 4, fleetReads: 4,
}

// serviceGeneFrac is the share of gene-carrying reads in every EST bank
// but est_cold's (simulate's default; est_cold uses a denser 0.7, in
// estGeneFrac, to load step 3).
const serviceGeneFrac = 0.45
