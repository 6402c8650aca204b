// Package dust implements a DUST-style low-complexity filter. The paper
// (§2.1) optionally discards W-words in low-complexity regions from the
// index "to eliminate non interesting alignments made of small repeats",
// and notes (§3.4) that its filter differs from NCBI's dust [14]; this
// implementation is the same family of algorithm: windows are scored by
// their triplet-composition bias and high-scoring spans are masked.
//
// Score of a window holding triplet counts c_t over k = L-2 triplets:
//
//	score = Σ_t c_t(c_t-1)/2 / (k-1)
//
// A uniform-random window scores ≈0.5; poly-A or dinucleotide repeats
// score far above the threshold of 2.0 (NCBI dust "level 20").
package dust

import (
	"sort"

	"repro/internal/dna"
)

// Window is the sliding-window length in bases: the classic dust window.
const Window = 64

// Threshold is the triplet score above which a window is masked: NCBI
// dust level 20 (score×10 > 20).
const Threshold = 2.0

// Interval is a half-open masked range [Start,End) in the coordinates of
// the scanned slice.
type Interval struct {
	Start, End int
}

// Mask returns merged masked intervals for a coded sequence. Ambiguous
// or sentinel bytes split the sequence into independently scanned runs
// (and are never themselves masked — the indexer skips them anyway).
func Mask(codes []byte) []Interval {
	var out []Interval
	runStart := -1
	for i := 0; i <= len(codes); i++ {
		valid := i < len(codes) && dna.IsValid(codes[i])
		switch {
		case valid && runStart < 0:
			runStart = i
		case !valid && runStart >= 0:
			out = appendMerged(out, maskRun(codes, runStart, i)...)
			runStart = -1
		}
	}
	return out
}

// maskRun scans one all-valid run [lo,hi) and returns masked intervals.
func maskRun(codes []byte, lo, hi int) []Interval {
	n := hi - lo
	if n < 3 {
		return nil
	}
	w := min(Window, n)
	// Triplet codes for positions lo..hi-3.
	var counts [64]int16
	tripAt := func(p int) int {
		return int(codes[p])<<4 | int(codes[p+1])<<2 | int(codes[p+2])
	}
	var out []Interval
	// pairs = Σ c(c-1)/2, maintained incrementally.
	pairs := 0
	add := func(t int) {
		pairs += int(counts[t])
		counts[t]++
	}
	del := func(t int) {
		counts[t]--
		pairs -= int(counts[t])
	}
	k := w - 2 // triplets per full window
	// Prime first window's triplets.
	for p := lo; p < lo+k; p++ {
		add(tripAt(p))
	}
	limit := pairLimit(Threshold, max(k-1, 1), k*(k-1)/2)
	for start := lo; ; start++ {
		if pairs > limit {
			out = appendMerged(out, Interval{start, start + w})
		}
		if start+w >= hi {
			break
		}
		del(tripAt(start))
		add(tripAt(start + w - 2))
	}
	return out
}

// pairLimit is the window score test as an integer one: for every pairs
// in [0, most], float64(pairs)/float64(denom) > threshold exactly when
// pairs > pairLimit(threshold, denom, most). The float quotient never
// decreases as pairs grows, so the pairs that pass are those from the
// first that does: a binary search with the float rule itself finds it,
// once per run instead of a division per window.
func pairLimit(threshold float64, denom, most int) int {
	return sort.Search(most+1, func(pairs int) bool {
		return float64(pairs)/float64(denom) > threshold
	}) - 1
}

// appendMerged appends intervals, merging overlapping/adjacent ones.
func appendMerged(out []Interval, ivs ...Interval) []Interval {
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// MaskBits returns a per-position masked flag for codes: the plain form
// of the mask, which tests hold Windows against.
func MaskBits(codes []byte) []bool {
	bits := make([]bool, len(codes))
	for _, iv := range Mask(codes) {
		for i := iv.Start; i < iv.End && i < len(bits); i++ {
			bits[i] = true
		}
	}
	return bits
}

// Windows is the mask of one coded sequence, read window by window: its
// masked intervals and a cursor over them. The zero value masks nothing.
type Windows struct {
	ivs []Interval
}

// Scan returns the mask of codes with the filter on, and the zero
// Windows, which masks nothing, with it off.
func Scan(codes []byte, on bool) Windows {
	if !on {
		return Windows{}
	}
	return Windows{ivs: Mask(codes)}
}

// Masked reports whether the window [start, start+n) touches a masked
// base. Starts must not decrease from call to call: the cursor drops the
// intervals that end at or before start, one step per interval a pass.
func (w *Windows) Masked(start, n int) bool {
	for len(w.ivs) > 0 && w.ivs[0].End <= start {
		w.ivs = w.ivs[1:]
	}
	return len(w.ivs) > 0 && w.ivs[0].Start < start+n
}

// MaskedFraction reports the fraction of positions masked.
func MaskedFraction(codes []byte) float64 {
	if len(codes) == 0 {
		return 0
	}
	n := 0
	for _, iv := range Mask(codes) {
		n += iv.End - iv.Start
	}
	return float64(n) / float64(len(codes))
}
