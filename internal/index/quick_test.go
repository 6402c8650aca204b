package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/seed"
)

// randomBank derives a bank (with occasional Ns) from fuzz input.
func randomBank(seedVal int64, nSeqs, maxLen int) *bank.Bank {
	return bank.New("q", randomRecords(seedVal, nSeqs, maxLen))
}

// randomRecords is randomBank's sequences, before they become a bank.
func randomRecords(seedVal int64, nSeqs, maxLen int) []*fasta.Record {
	rng := rand.New(rand.NewSource(seedVal))
	letters := []byte("ACGTACGTACGTACGTN") // ~6% N
	recs := make([]*fasta.Record, nSeqs)
	for i := range recs {
		n := rng.Intn(maxLen + 1)
		s := make([]byte, n)
		for j := range s {
			s[j] = letters[rng.Intn(len(letters))]
		}
		recs[i] = &fasta.Record{ID: "r", Seq: s}
	}
	return recs
}

// Invariant: occurrence lists are strictly ascending, every listed
// position encodes to its own code, and the lists total the number of
// valid windows.
func TestQuickChainInvariants(t *testing.T) {
	f := func(seedVal int64, nRaw, wRaw uint8) bool {
		w := int(wRaw)%6 + 3
		b := randomBank(seedVal, int(nRaw)%6+1, 150)
		ix := Build(b, Options{W: w})
		total := 0
		ok := true
		eachCode(ix, func(c seed.Code, occ []int32) {
			prev := int32(-1)
			for _, p := range occ {
				got, valid := seed.Encode(b.Data[p:], w)
				if p <= prev || !valid || got != c {
					ok = false
				}
				prev = p
				total++
			}
		})
		return ok && total == seed.Count(b.Data, w) && total == ix.Indexed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Invariant: sampling partitions the full index; step 2 keeps exactly
// the full index's even positions and counts the odd ones sampled out.
func TestQuickSamplingPartition(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		const w = 5
		b := randomBank(seedVal, int(nRaw)%4+1, 200)
		full := Build(b, Options{W: w})
		half := Build(b, Options{W: w, SampleStep: 2})
		if half.Indexed+half.SampledOut != full.Indexed {
			return false
		}
		// Every position listed in half has even Data coordinate.
		for _, p := range only(half).Pos {
			if p%2 != 0 {
				return false
			}
		}
		even := 0
		for _, p := range only(full).Pos {
			if p%2 == 0 {
				even++
			}
		}
		return even == half.Indexed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Invariant: building twice yields identical structures (determinism).
func TestQuickBuildDeterministic(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		const w = 4
		b := randomBank(seedVal, int(nRaw)%4+1, 120)
		a := Build(b, Options{W: w})
		c := Build(b, Options{W: w})
		return a.Indexed == c.Indexed && slices.Equal(only(a).Directory(), only(c).Directory()) &&
			slices.Equal(only(a).Offsets, only(c).Offsets) && slices.Equal(only(a).Pos, only(c).Pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
