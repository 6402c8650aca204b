// Package dna provides the nucleotide alphabet, the paper's 2-bit
// encoding, and basic sequence manipulation used by every other package
// in the repository.
//
// The encoding follows Lavenier (HiCOMB 2008) exactly:
//
//	A C G T
//	00 01 11 10
//
// i.e. A=0, C=1, T=2, G=3. The unusual G/T order is what the paper's
// codeSEED function assumes; keeping it means our seed enumeration order
// matches the published algorithm literally.
package dna

import "fmt"

// Code is a 2-bit nucleotide code in the range [0,3].
type Code = byte

// Nucleotide codes, per the paper's table (A=00, C=01, T=10, G=11).
const (
	A Code = 0
	C Code = 1
	T Code = 2
	G Code = 3
)

// Alphabet is the number of distinct nucleotide codes.
const Alphabet = 4

// Invalid marks a byte that is not a nucleotide (used for 'N' and other
// IUPAC ambiguity characters after encoding). It never equals a valid
// code and never equals a bank sentinel.
const Invalid Code = 0xEE

// encodeTable maps ASCII bytes to 2-bit codes; non-ACGT map to Invalid.
var encodeTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = Invalid
	}
	t['A'], t['a'] = A, A
	t['C'], t['c'] = C, C
	t['G'], t['g'] = G, G
	t['T'], t['t'] = T, T
	// U (RNA) is accepted and treated as T.
	t['U'], t['u'] = T, T
	return t
}()

// decodeTable maps 2-bit codes back to upper-case ASCII.
var decodeTable = [Alphabet]byte{'A', 'C', 'T', 'G'}

// complementTable maps a code to its Watson-Crick complement.
// A<->T (0<->2) and C<->G (1<->3): complement(c) = c ^ 2 under this
// encoding for A/T, but C=1 -> G=3 and G=3 -> C=1 is c ^ 2 as well.
// Conveniently the paper's encoding makes complement a single XOR.
var complementTable = [Alphabet]Code{T, G, A, C}

// EncodeByte converts one ASCII nucleotide to its 2-bit code.
// Non-ACGTU bytes (including IUPAC ambiguity codes) return Invalid.
func EncodeByte(b byte) Code { return encodeTable[b] }

// DecodeByte converts a 2-bit code back to an upper-case ASCII
// nucleotide. It panics if the code is not in [0,3]; callers hold the
// invariant that only valid codes reach decoding.
func DecodeByte(c Code) byte {
	if c >= Alphabet {
		panic(fmt.Sprintf("dna: decode of invalid code %#x", c))
	}
	return decodeTable[c]
}

// IsValid reports whether c is a real nucleotide code.
func IsValid(c Code) bool { return c < Alphabet }

// Complement returns the Watson-Crick complement of a valid code.
func Complement(c Code) Code { return complementTable[c] }

// Encode converts an ASCII sequence to 2-bit codes. Ambiguous bytes
// become Invalid. The result is a fresh slice.
func Encode(ascii []byte) []Code {
	out := make([]Code, len(ascii))
	for i, b := range ascii {
		out[i] = encodeTable[b]
	}
	return out
}

// Decode converts 2-bit codes back to ASCII. Invalid codes decode to 'N'.
func Decode(codes []Code) []byte {
	out := make([]byte, len(codes))
	for i, c := range codes {
		if c < Alphabet {
			out[i] = decodeTable[c]
		} else {
			out[i] = 'N'
		}
	}
	return out
}

// ReverseComplement returns the reverse complement of a coded sequence.
// Invalid codes stay Invalid but their positions are still reversed.
func ReverseComplement(codes []Code) []Code {
	out := make([]Code, len(codes))
	for i, c := range codes {
		j := len(codes) - 1 - i
		if c < Alphabet {
			out[j] = complementTable[c]
		} else {
			out[j] = Invalid
		}
	}
	return out
}

// ReverseComplementInPlace reverse-complements codes in place.
func ReverseComplementInPlace(codes []Code) {
	i, j := 0, len(codes)-1
	for i < j {
		ci, cj := codes[i], codes[j]
		codes[i], codes[j] = comp(cj), comp(ci)
		i++
		j--
	}
	if i == j {
		codes[i] = comp(codes[i])
	}
}

func comp(c Code) Code {
	if c < Alphabet {
		return complementTable[c]
	}
	return Invalid
}
