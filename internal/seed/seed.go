// Package seed implements the W-nt seed coding of the ORIS algorithm
// (paper §2.1):
//
//	codeSEED(S) = Σ_{i<W} 4^i · codeNT(S_i)
//
// The first (leftmost) character of the seed is the least-significant
// digit. Together with the paper's nucleotide codes this defines the
// total order in which step 2 enumerates all 4^W seeds; the ordered
// abort rule of package hsp compares these codes.
//
// The package provides O(1) rolling updates in both directions so that
// scanning a bank forward (index construction, BLAST subject scan) and
// walking leftward during extension (the abort-rule check) update a
// code per step instead of re-encoding the window.
package seed

import (
	"fmt"

	"repro/internal/dna"
)

// Code is a packed seed code. W ≤ 15 fits in 30 bits.
type Code uint32

// MaxW is the largest supported seed length (a 30-bit Code). The paper
// uses W=11 and W=10.
const MaxW = 15

// NumCodes returns 4^w, the size of the seed code space.
func NumCodes(w int) int {
	if w < 1 || w > MaxW {
		panic(fmt.Sprintf("seed: unsupported W=%d", w))
	}
	return 1 << (2 * uint(w))
}

// Encode computes codeSEED over codes[0:w]. ok is false if the window
// contains a non-nucleotide byte or is too short.
func Encode(codes []byte, w int) (c Code, ok bool) {
	if len(codes) < w {
		return 0, false
	}
	for i := w - 1; i >= 0; i-- {
		b := codes[i]
		if !dna.IsValid(b) {
			return 0, false
		}
		c = c<<2 | Code(b)
	}
	return c, true
}

// Decode expands a code back into w nucleotide codes.
func Decode(c Code, w int) []byte {
	out := make([]byte, w)
	for i := 0; i < w; i++ {
		out[i] = byte(c & 3)
		c >>= 2
	}
	return out
}

// String renders a code as ASCII bases for diagnostics.
func String(c Code, w int) string {
	return string(dna.Decode(Decode(c, w)))
}

// RollRight slides a window one position right: the old first base
// (least-significant digit) leaves, incoming becomes the new last base.
func RollRight(c Code, incoming byte, w int) Code {
	return (c >> 2) | Code(incoming)<<(2*uint(w-1))
}

// RollLeft slides a window one position left: outgoing is the old last
// base (most-significant digit), incoming becomes the new first base.
func RollLeft(c Code, incoming, outgoing byte, w int) Code {
	return (c-Code(outgoing)<<(2*uint(w-1)))<<2 | Code(incoming)
}

// ForEach calls fn(pos, code) for every position pos in data where a
// valid (sentinel- and ambiguity-free) W-window *starts*, in increasing
// position order. It is the single scanning primitive shared by the
// ORIS indexer and the BLASTN subject scan.
//
// The implementation rolls the code and tracks the length of the
// current run of valid bases; a window is valid when the run ending at
// its last base is at least w long.
func ForEach(data []byte, w int, fn func(pos int32, c Code)) {
	var c Code
	run := 0
	for i := 0; i < len(data); i++ {
		b := data[i]
		if !dna.IsValid(b) {
			run = 0
			continue
		}
		c = RollRight(c, b, w)
		run++
		if run >= w {
			fn(int32(i-w+1), c)
		}
	}
}

// Count returns how many valid seed windows of length w data contains.
func Count(data []byte, w int) int {
	n := 0
	ForEach(data, w, func(int32, Code) { n++ })
	return n
}

// Compare orders two codes as the paper does: the seed with the smaller
// integer code is "lower" and is enumerated first by step 2.
func Compare(a, b Code) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
