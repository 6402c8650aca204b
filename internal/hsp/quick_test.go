package hsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bank"
	"repro/internal/index"
)

func indexBuildSampled(b *bank.Bank, w, step int) *index.Index {
	return index.Build(b, index.Options{W: w, SampleStep: step})
}

// quickBanks derives a related bank pair from fuzz input.
func quickBanks(seedVal int64, nRaw uint8) (*bank.Bank, *bank.Bank) {
	rng := rand.New(rand.NewSource(seedVal))
	n := int(nRaw)%3 + 2
	seqs1 := randomSeqs(rng, n, 40, 120)
	seqs2 := []string{mutate(rng, seqs1[0], 0.06)}
	if n > 2 {
		seqs2 = append(seqs2, mutate(rng, seqs1[1], 0.12))
	}
	return mkBank("x", seqs1...), mkBank("y", seqs2...)
}

// Property: the ordered run never emits duplicates and is a subset of
// the naive run, for arbitrary related banks and parameters.
func TestQuickOrderedSubsetAndUnique(t *testing.T) {
	f := func(seedVal int64, nRaw, wRaw, xRaw uint8) bool {
		w := int(wRaw)%4 + 4
		xdrop := int32(xRaw)%40 + 5
		b1, b2 := quickBanks(seedVal, nRaw)
		ordered, _ := runStep2(b1, b2, w, xdrop, true)
		naive, _ := runStep2(b1, b2, w, xdrop, false)
		naiveSet := map[HSP]bool{}
		for _, h := range naive {
			naiveSet[h] = true
		}
		seen := map[HSP]bool{}
		for _, h := range ordered {
			if seen[h] || !naiveSet[h] {
				return false
			}
			seen[h] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: every emitted HSP has a valid geometry and its score is
// reproducible from the sequences.
func TestQuickHSPGeometryAndScore(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		const w = 5
		b1, b2 := quickBanks(seedVal, nRaw)
		hs, _ := runStep2(b1, b2, w, 25, true)
		for _, h := range hs {
			if h.E1-h.S1 != h.E2-h.S2 || h.Len() < int32(w) {
				return false
			}
			if h.Diag() != h.S1-h.S2 {
				return false
			}
			if Rescore(b1.Data, b2.Data, h, 1, 3) != h.Score {
				return false
			}
			if id := Identity(b1.Data, b2.Data, h); id <= 0 || id > 1 {
				return false
			}
			if b1.SeqAt(h.S1) != b1.SeqAt(h.E1-1) || b2.SeqAt(h.S2) != b2.SeqAt(h.E2-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: with bank-1 sampling, the ordered rule still loses no
// diagonals relative to the sampled naive run (the sampled-abort fix).
func TestQuickSampledOrderedLosesNoDiagonals(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		const w, xd = 5, 1 << 30
		b1, b2 := quickBanks(seedVal, nRaw)
		run := func(ordered bool) []HSP {
			ix1 := indexBuildSampled(b1, w, 2)
			ix2 := indexBuildSampled(b2, w, 1)
			ext := Extender{W: w, Match: 1, Mismatch: 3, XDrop: xd,
				Ordered: ordered, SampleStep: 2}
			var out []HSP
			for k1, code := range ix1.Codes {
				for i1 := ix1.Offsets[k1]; i1 < ix1.Offsets[k1+1]; i1++ {
					p1, lo1, hi1 := ix1.Pos[i1], ix1.OccLo[i1], ix1.OccHi[i1]
					for _, p2 := range ix2.Occ(code) {
						lo2, hi2 := b2.SeqBounds(int(b2.SeqAt(p2)))
						if h, ok := ext.Extend(b1.Data, b2.Data, p1, p2, lo1, hi1, lo2, hi2, code, nil); ok {
							out = append(out, h)
						}
					}
				}
			}
			return out
		}
		type dk struct{ d, s1, s2 int32 }
		diags := func(hs []HSP) map[dk]bool {
			m := map[dk]bool{}
			for _, h := range hs {
				m[dk{h.Diag(), b1.SeqAt(h.S1), b2.SeqAt(h.S2)}] = true
			}
			return m
		}
		od := diags(run(true))
		nd := diags(run(false))
		for k := range nd {
			if !od[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
