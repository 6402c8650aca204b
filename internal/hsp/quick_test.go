package hsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/seed"
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
			for _, code := range ix1.Codes {
				for _, p1 := range ix1.Occ(code) {
					for _, p2 := range ix2.Occ(code) {
						if h, ok := ext.Extend(b1.Data, b2.Data, p1, p2, code, nil); ok {
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

// extendBounded is the reference Extend is held to: the same ordered
// X-drop extension, but told where the two records end — each arm's
// step limit is computed from Bank.SeqBounds — and with the abort rule's
// code re-encoded from the sequence at every step instead of rolled.
func extendBounded(e *Extender, b1, b2 *bank.Bank, p1, p2 int32, anchor seed.Code) (HSP, bool) {
	d1, d2 := b1.Data, b2.Data
	w := int32(e.W)
	lo1, hi1 := b1.SeqBounds(int(b1.SeqAt(p1)))
	lo2, hi2 := b2.SeqBounds(int(b2.SeqAt(p2)))
	// arm walks limit steps from the seed; at step l it compares
	// d1[o1+dir*l] with d2[o2+dir*l], and the embedded window that step
	// completes starts win bases from the bank-1 position.
	arm := func(o1, o2, dir, limit, win int32) (best, gain int32, ok bool) {
		var score int32
		run := w
		for l := int32(1); l <= limit; l++ {
			q1, q2 := o1+dir*l, o2+dir*l
			if d1[q1] != d2[q2] || d1[q1] >= 4 {
				score -= e.Mismatch
				run = 0
				if gain-score >= e.XDrop {
					break
				}
				continue
			}
			score += e.Match
			if score > gain {
				gain, best = score, l
			}
			if run++; e.Ordered && run >= w {
				c, _ := seed.Encode(d1[q1+win:], e.W)
				if (c < anchor || dir < 0 && c == anchor) && e.sampled(q1+win) {
					return 0, 0, false
				}
			}
		}
		return best, gain, true
	}
	left, gainL, ok := arm(p1, p2, -1, min(p1-lo1, p2-lo2), 0)
	if !ok {
		return HSP{}, false
	}
	right, gainR, ok := arm(p1+w-1, p2+w-1, +1, min(hi1-(p1+w), hi2-(p2+w)), -(w - 1))
	if !ok {
		return HSP{}, false
	}
	return HSP{
		S1: p1 - left, E1: p1 + w + right,
		S2: p2 - left, E2: p2 + w + right,
		Score: w*e.Match + gainL + gainR,
	}, true
}

// Property: ending an arm at the first sentinel is ending it at the
// record bounds. The banks are built to tempt a walk across: every
// record of both banks begins with one shared flank and ends with
// another, so wherever a record of bank 1 ends a record of bank 2 ends
// on the same diagonal and the two neighbours continue identically —
// at Data[0] and the final sentinel too — and each bank also holds the
// two flanks back to back inside one record, where only the other
// bank's side ends.
// Extend must return exactly what the bounds-taking reference returns,
// and no HSP may contain a sentinel.
func TestExtendStopsAtSentinelsLikeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 25; trial++ {
		w := 4 + rng.Intn(4)
		flanks := randomSeqs(rng, 2, w+2, w+8)
		head, tail := flanks[0], flanks[1]
		var seqs1, seqs2 []string
		for i, mid := range randomSeqs(rng, 3+rng.Intn(2), 10, 60) {
			seqs1 = append(seqs1, head+mid+tail)
			mid2 := mutate(rng, mid, 0.1)
			if i%2 == 1 {
				mid2 = randomSeqs(rng, 1, 5, 40)[0]
			}
			seqs2 = append(seqs2, head+mid2+tail)
		}
		seqs1 = append(seqs1, head+randomSeqs(rng, 1, 5, 20)[0]+tail+head+tail)
		seqs2 = append(seqs2, head+randomSeqs(rng, 1, 5, 20)[0]+tail+head+tail)
		b1, b2 := mkBank("x", seqs1...), mkBank("y", seqs2...)
		first1, _ := b1.SeqBounds(0)
		_, last1 := b1.SeqBounds(b1.NumSeqs() - 1)

		for _, step := range []int{1, 2} {
			ix1 := indexBuildSampled(b1, w, step)
			ix2 := indexBuildSampled(b2, w, 1)
			for _, ordered := range []bool{true, false} {
				for _, xdrop := range []int32{5, 1 << 30} {
					ext := Extender{W: w, Match: 1, Mismatch: 3, XDrop: xdrop, Ordered: ordered}
					if step > 1 {
						ext.SampleStep = int32(step)
					}
					var atFirst, atLast, emitted int
					for _, code := range ix1.Codes {
						for _, p1 := range ix1.Occ(code) {
							for _, p2 := range ix2.Occ(code) {
								got, gotOK := ext.Extend(b1.Data, b2.Data, p1, p2, code, nil)
								want, wantOK := extendBounded(&ext, b1, b2, p1, p2, code)
								if got != want || gotOK != wantOK {
									t.Fatalf("trial %d step=%d ordered=%v xdrop=%d hit (%d,%d): Extend = %+v,%v, bounded reference = %+v,%v",
										trial, step, ordered, xdrop, p1, p2, got, gotOK, want, wantOK)
								}
								if !gotOK {
									continue
								}
								emitted++
								if got.S1 == first1 {
									atFirst++
								}
								if got.E1 == last1 {
									atLast++
								}
								for i := int32(0); i < got.Len(); i++ {
									if b1.Data[got.S1+i] == bank.Sentinel || b2.Data[got.S2+i] == bank.Sentinel {
										t.Fatalf("trial %d: HSP %+v spans a sentinel", trial, got)
									}
								}
							}
						}
					}
					if emitted == 0 || atFirst == 0 || atLast == 0 {
						t.Fatalf("trial %d step=%d ordered=%v xdrop=%d: %d HSPs, %d reaching the first record's start, %d the last record's end — the construction exercises neither end",
							trial, step, ordered, xdrop, emitted, atFirst, atLast)
					}
				}
			}
		}
	}
}
