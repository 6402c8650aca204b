// Package stats implements Karlin–Altschul alignment statistics for the
// uniform-composition DNA scoring systems used by SCORIS-N and BLASTN:
// raw-score → bit-score conversion and E-values.
//
// λ is the unique positive solution of Σ pᵢpⱼ·e^{λ·sᵢⱼ} = 1 (bisection);
// H is the relative entropy of the tilted score distribution; K is
// computed with the Karlin–Altschul (1990) lattice series
//
//	K = λ·d·e^{−2σ} / (H·(1−e^{−λd})),
//	σ = Σ_{k≥1} (1/k)·[ Σ_{j<0} P_k(j)e^{λj} + Σ_{j≥0} P_k(j) ],
//
// where P_k is the k-fold convolution of the per-column score
// distribution and d the lattice gcd. The implementation reproduces the
// published NCBI blast_stat.c values (e.g. +1/−3 → λ=1.374, K=0.711,
// H=1.31) to three decimals; see the tests.
//
// E-values follow the paper's §3.1 convention: E = K·m·n·e^{−λS} with
// m the total size of bank 1 and n the length of the subject sequence
// the alignment was found in.
package stats

import (
	"fmt"
	"math"
)

// Scoring bundles the match/mismatch/gap parameters shared by the
// ungapped and gapped extension stages.
type Scoring struct {
	// Match is the (positive) reward for an identical base pair.
	Match int
	// Mismatch is the (positive) penalty for a substitution.
	Mismatch int
	// GapOpen is the (positive) penalty for opening a gap.
	GapOpen int
	// GapExtend is the (positive) penalty per gap base.
	GapExtend int
}

// DefaultScoring matches 2007-era NCBI BLASTN defaults (+1/−3, gap
// open 5, gap extend 2), the plausible configuration of the paper's
// experiments.
var DefaultScoring = Scoring{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2}

// MaxParam bounds every scoring parameter and X-drop threshold a caller
// may set. BLAST's are one digit; the bound is what keeps the engines'
// int32 score arithmetic — the gapped DP's on dead states above all
// (gapped.NewExtender) — from wrapping on a value a request chose.
const MaxParam = 1 << 15

// Validate checks that the scoring system is usable by KA theory and
// within MaxParam.
func (s Scoring) Validate() error {
	if s.Match <= 0 || s.Mismatch <= 0 {
		return fmt.Errorf("stats: match (%d) and mismatch (%d) must be positive", s.Match, s.Mismatch)
	}
	if s.GapOpen < 0 || s.GapExtend <= 0 {
		return fmt.Errorf("stats: gap open (%d) must be ≥0 and extend (%d) positive", s.GapOpen, s.GapExtend)
	}
	if s.Match > MaxParam || s.Mismatch > MaxParam || s.GapOpen > MaxParam || s.GapExtend > MaxParam {
		return fmt.Errorf("stats: scoring +%d/−%d, gaps %d/%d exceeds the bound %d", s.Match, s.Mismatch, s.GapOpen, s.GapExtend, MaxParam)
	}
	// Expected per-column score must be negative for local alignment
	// statistics to exist (uniform base composition).
	if float64(s.Match)/4-3*float64(s.Mismatch)/4 >= 0 {
		return fmt.Errorf("stats: expected score non-negative for +%d/−%d", s.Match, s.Mismatch)
	}
	return nil
}

// KarlinAltschul holds the statistical parameters of a scoring system.
type KarlinAltschul struct {
	Lambda float64 // scale of raw scores
	K      float64 // search-space correction constant
	H      float64 // relative entropy (bits of information per position)
}

// Ungapped computes KA parameters for the +match/−mismatch system under
// uniform base composition. Results are cached per parameter pair.
func Ungapped(match, mismatch int) (KarlinAltschul, error) {
	if match <= 0 || mismatch <= 0 {
		return KarlinAltschul{}, fmt.Errorf("stats: invalid scores +%d/−%d", match, mismatch)
	}
	if float64(match)/4-3*float64(mismatch)/4 >= 0 {
		return KarlinAltschul{}, fmt.Errorf("stats: expected score non-negative for +%d/−%d", match, mismatch)
	}
	key := [2]int{match, mismatch}
	cacheMu := &kaCacheMu
	cacheMu.Lock()
	if ka, ok := kaCache[key]; ok {
		cacheMu.Unlock()
		return ka, nil
	}
	cacheMu.Unlock()

	lambda := solveLambda(match, mismatch)
	h := entropyH(lambda, match, mismatch)
	k := karlinK(lambda, h, match, mismatch)
	ka := KarlinAltschul{Lambda: lambda, K: k, H: h}

	cacheMu.Lock()
	kaCache[key] = ka
	cacheMu.Unlock()
	return ka, nil
}

// MustUngapped is Ungapped for known-good parameters (panics on error).
func MustUngapped(match, mismatch int) KarlinAltschul {
	ka, err := Ungapped(match, mismatch)
	if err != nil {
		panic(err)
	}
	return ka
}

var (
	kaCache   = map[[2]int]KarlinAltschul{}
	kaCacheMu mutex
)

// mutex is a tiny local alias so this file stays dependency-light.
type mutex struct{ ch chan struct{} }

func (m *mutex) Lock() {
	if m.ch == nil {
		m.ch = make(chan struct{}, 1)
	}
	m.ch <- struct{}{}
}
func (m *mutex) Unlock() { <-m.ch }

// solveLambda bisects Σ pᵢpⱼ e^{λs} = 1 on (0, 10].
func solveLambda(match, mismatch int) float64 {
	f := func(l float64) float64 {
		return 0.25*math.Exp(l*float64(match)) + 0.75*math.Exp(-l*float64(mismatch)) - 1
	}
	lo, hi := 1e-12, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// entropyH computes H = λ·Σ s·p(s)·e^{λs}.
func entropyH(lambda float64, match, mismatch int) float64 {
	a, b := float64(match), float64(mismatch)
	return lambda * (a*0.25*math.Exp(lambda*a) - b*0.75*math.Exp(-lambda*b))
}

// karlinK evaluates the lattice series for K.
func karlinK(lambda, h float64, match, mismatch int) float64 {
	d := gcd(match, mismatch)
	// k-fold convolution of the step distribution. After k steps the
	// walk stands on one of k+1 scores — u matches and k-u mismatches —
	// so probs[u] is all there is to keep, whatever the scores' size.
	const (
		iterMax  = 300
		sumLimit = 1e-10
	)
	probs := make([]float64, 1, iterMax+1)
	probs[0] = 1 // P_0: score 0 with prob 1
	sigma := 0.0
	for k := 1; k <= iterMax; k++ {
		probs = append(probs, 0)
		for u := k; u >= 0; u-- {
			p := probs[u] * 0.75 // one more mismatch
			if u > 0 {
				p = probs[u-1]*0.25 + p // or one more match
			}
			probs[u] = p
		}
		inner := 0.0
		for u, p := range probs {
			if s := u*match - (k-u)*mismatch; s < 0 {
				inner += p * math.Exp(lambda*float64(s))
			} else {
				inner += p
			}
		}
		term := inner / float64(k)
		sigma += term
		if term < sumLimit {
			break
		}
	}
	df := float64(d)
	return lambda * df * math.Exp(-2*sigma) / (h * (1 - math.Exp(-lambda*df)))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BitScore converts a raw score to a normalized bit score.
func (ka KarlinAltschul) BitScore(raw int) float64 {
	return (ka.Lambda*float64(raw) - math.Log(ka.K)) / math.Ln2
}

// EValue returns the expected number of alignments with score ≥ raw in
// a search space of m×n (paper: m = bank1 residues, n = subject
// sequence length).
func (ka KarlinAltschul) EValue(raw int, m, n int) float64 {
	return ka.K * float64(m) * float64(n) * math.Exp(-ka.Lambda*float64(raw))
}

// MinScoreForEValue returns the smallest raw score whose E-value in an
// m×n space is ≤ maxE. Both engines use it to translate the user's -e
// cutoff into a raw-score threshold.
func (ka KarlinAltschul) MinScoreForEValue(maxE float64, m, n int) int {
	if maxE <= 0 || m <= 0 || n <= 0 {
		return math.MaxInt32
	}
	// E ≤ maxE  ⇔  S ≥ ln(K·m·n/maxE)/λ
	s := math.Log(ka.K*float64(m)*float64(n)/maxE) / ka.Lambda
	raw := int(math.Ceil(s))
	if raw < 1 {
		raw = 1
	}
	return raw
}

// PValue converts an E-value to a P-value (probability of ≥1 hit).
func PValue(e float64) float64 {
	if e > 1e-6 {
		return 1 - math.Exp(-e)
	}
	return e // asymptotically identical, numerically stabler
}

// LengthAdjustment computes BLAST's edge-effect correction: an
// alignment cannot start within ~l bases of a sequence end, where l is
// the expected alignment length, so the effective search space shrinks
// to (m−l)(n−l). l solves the fixed point
//
//	l = ln(K·(m−l)·(n−l)) / H
//
// iterated as in NCBI's BlastComputeLengthAdjustment. Both engines use
// raw m·n by default (the convention of the paper's §3.1 E-values);
// this is the opt-in refinement.
func (ka KarlinAltschul) LengthAdjustment(m, n int) int {
	if m <= 0 || n <= 0 || ka.H <= 0 {
		return 0
	}
	mf, nf := float64(m), float64(n)
	l := 0.0
	for i := 0; i < 20; i++ {
		me, ne := mf-l, nf-l
		if me < 1 {
			me = 1
		}
		if ne < 1 {
			ne = 1
		}
		next := math.Log(ka.K*me*ne) / ka.H
		if next < 0 {
			next = 0
		}
		if math.Abs(next-l) < 0.5 {
			l = next
			break
		}
		l = next
	}
	// Clamp: the adjustment may not consume either sequence.
	max := math.Min(mf, nf) / 2
	if l > max {
		l = max
	}
	return int(l)
}

// EValueEffective is EValue over the edge-corrected search space.
func (ka KarlinAltschul) EValueEffective(raw, m, n int) float64 {
	l := ka.LengthAdjustment(m, n)
	me, ne := m-l, n-l
	if me < 1 {
		me = 1
	}
	if ne < 1 {
		ne = 1
	}
	return ka.EValue(raw, me, ne)
}
