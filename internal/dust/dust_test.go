package dust

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dna"
)

func maskString(t *testing.T, s string) []Interval {
	t.Helper()
	return Mask(dna.Encode([]byte(s)))
}

func TestPolyARunIsMasked(t *testing.T) {
	ivs := maskString(t, strings.Repeat("A", 200))
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v", ivs)
	}
	if ivs[0].Start != 0 || ivs[0].End != 200 {
		t.Errorf("interval = %v, want [0,200)", ivs[0])
	}
}

func TestDinucleotideRepeatIsMasked(t *testing.T) {
	ivs := maskString(t, strings.Repeat("AT", 100))
	if len(ivs) == 0 {
		t.Fatal("AT repeat not masked")
	}
}

func TestTrinucleotideRepeatIsMasked(t *testing.T) {
	ivs := maskString(t, strings.Repeat("CAG", 70))
	if len(ivs) == 0 {
		t.Fatal("CAG repeat not masked")
	}
}

func TestRandomSequenceMostlyUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := []byte("ACGT")
	s := make([]byte, 20000)
	for i := range s {
		s[i] = letters[rng.Intn(4)]
	}
	frac := MaskedFraction(dna.Encode(s))
	if frac > 0.05 {
		t.Errorf("random sequence masked fraction = %v, want < 0.05", frac)
	}
}

func TestEmbeddedRepeatMaskedRandomContextNot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	letters := []byte("ACGT")
	mkRand := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[rng.Intn(4)]
		}
		return string(b)
	}
	left, right := mkRand(500), mkRand(500)
	s := left + strings.Repeat("A", 120) + right
	bits := MaskBits(dna.Encode([]byte(s)))
	// The center of the poly-A must be masked.
	for p := 540; p < 580; p++ {
		if !bits[p] {
			t.Fatalf("poly-A center position %d unmasked", p)
		}
	}
	// Positions far away must not be masked (allow the window's bleed).
	for p := 0; p < 400; p++ {
		if bits[p] {
			t.Fatalf("random left-context position %d masked", p)
		}
	}
}

func TestShortSequencesNoPanic(t *testing.T) {
	for _, s := range []string{"", "A", "AC", "ACG", "AAAA"} {
		if ivs := maskString(t, s); len(ivs) != 0 && len(s) < 4 {
			t.Errorf("%q masked: %v", s, ivs)
		}
	}
}

func TestAmbiguousBasesSplitRuns(t *testing.T) {
	s := strings.Repeat("A", 40) + "N" + strings.Repeat("A", 40)
	ivs := maskString(t, s)
	// Both poly-A runs are masked; the N position (40) never is.
	bits := MaskBits(dna.Encode([]byte(s)))
	if bits[40] {
		t.Error("N position masked")
	}
	if !bits[10] || !bits[60] {
		t.Errorf("poly-A runs not masked: %v", ivs)
	}
}

func TestIntervalsAreMergedAndSorted(t *testing.T) {
	ivs := maskString(t, strings.Repeat("A", 300))
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start <= ivs[i-1].End {
			t.Fatalf("intervals not merged: %v", ivs)
		}
	}
}

func TestMaskDeterministic(t *testing.T) {
	s := strings.Repeat("ACGTAAAAAAAAAAAAAAAAAAAAAAAAAAAAGTCA", 10)
	a := maskString(t, s)
	b := maskString(t, s)
	if len(a) != len(b) {
		t.Fatal("non-deterministic interval count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkMask1Mb(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	letters := []byte("ACGT")
	s := make([]byte, 1<<20)
	for i := range s {
		s[i] = letters[rng.Intn(4)]
	}
	codes := dna.Encode(s)
	b.SetBytes(int64(len(codes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mask(codes)
	}
}

// TestPairLimitMatchesFloatRule: the integer test maskRun makes per
// window is the float score rule it replaces, for every pairs count a
// window of up to 128 bases can reach, at the default threshold and at
// fractional ones — including thresholds a quotient meets exactly.
func TestPairLimitMatchesFloatRule(t *testing.T) {
	for _, threshold := range []float64{Threshold, 0.1, 0.5, 1.0 / 3, 1.37, 2.05, 2.5, 10.0 / 3, 7.999} {
		for w := 5; w <= 128; w++ {
			k := w - 2
			denom, most := max(k-1, 1), k*(k-1)/2
			limit := pairLimit(threshold, denom, most)
			for pairs := 0; pairs <= most; pairs++ {
				if want := float64(pairs)/float64(denom) > threshold; (pairs > limit) != want {
					t.Fatalf("threshold %v, window %d: %d pairs over %d masks %v by the float rule, %v by the limit %d",
						threshold, w, pairs, denom, want, pairs > limit, limit)
				}
			}
		}
	}
}

// FuzzWindows holds Windows.Masked against MaskBits: for every start, in
// ascending order, a window of the fuzzed width is masked exactly when
// some position of it is, and a cursor that skips starts agrees. The
// bytes are arbitrary, so ambiguous and sentinel bytes split the runs
// the filter scans; with the filter off, Scan masks nothing.
func FuzzWindows(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	mixed := dna.Encode([]byte(strings.Repeat("AT", 40) + "N" + strings.Repeat("A", 90)))
	for range 150 {
		mixed = append(mixed, byte(rng.Intn(4)))
	}
	mixed = append(mixed, 0xF0) // a bank sentinel
	mixed = append(mixed, dna.Encode([]byte(strings.Repeat("CAG", 30)))...)
	for _, n := range []uint8{4, 8, 11, 64} {
		f.Add(mixed, n)
	}
	f.Add(dna.Encode([]byte(strings.Repeat("A", 200))), uint8(11))
	f.Fuzz(func(t *testing.T, codes []byte, width uint8) {
		n := max(int(width), 1)
		bits := MaskBits(codes)
		masked := func(start int) bool {
			return slices.Contains(bits[start:min(start+n, len(bits))], true)
		}
		all, skip, none := Scan(codes, true), Scan(codes, true), Scan(codes, false)
		step := 1 + n%5
		for start := range codes {
			if got, want := all.Masked(start, n), masked(start); got != want {
				t.Fatalf("window %d (width %d): Masked = %v, MaskBits says %v", start, n, got, want)
			}
			if start%step == 0 && skip.Masked(start, n) != masked(start) {
				t.Fatalf("window %d (width %d, every %d-th start): Masked disagrees with MaskBits", start, n, step)
			}
			if none.Masked(start, n) {
				t.Fatalf("the filter off masked window %d", start)
			}
		}
	})
}
