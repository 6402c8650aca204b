package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeByteKnownValues(t *testing.T) {
	cases := []struct {
		in   byte
		want Code
	}{
		{'A', 0}, {'C', 1}, {'T', 2}, {'G', 3},
		{'a', 0}, {'c', 1}, {'t', 2}, {'g', 3},
		{'U', 2}, {'u', 2},
	}
	for _, c := range cases {
		if got := EncodeByte(c.in); got != c.want {
			t.Errorf("EncodeByte(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEncodeByteInvalid(t *testing.T) {
	for _, b := range []byte{'N', 'n', 'X', '-', ' ', '\n', 0, 255, 'R', 'Y'} {
		if got := EncodeByte(b); got != Invalid {
			t.Errorf("EncodeByte(%q) = %#x, want Invalid", b, got)
		}
	}
}

func TestPaperEncodingOrder(t *testing.T) {
	// The paper's table: A=00, C=01, T=10, G=11. The seed-order proofs
	// rely on this exact mapping, so pin it.
	if A != 0 || C != 1 || T != 2 || G != 3 {
		t.Fatalf("encoding drifted from the paper: A=%d C=%d T=%d G=%d", A, C, T, G)
	}
}

func TestDecodeByteRoundTrip(t *testing.T) {
	for c := Code(0); c < Alphabet; c++ {
		b := DecodeByte(c)
		if EncodeByte(b) != c {
			t.Errorf("round trip failed for code %d (ascii %q)", c, b)
		}
	}
}

func TestDecodeBytePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeByte(Invalid) did not panic")
		}
	}()
	DecodeByte(Invalid)
}

func TestComplementPairs(t *testing.T) {
	pairs := map[Code]Code{A: T, T: A, C: G, G: C}
	for c, want := range pairs {
		if got := Complement(c); got != want {
			t.Errorf("Complement(%c) = %c, want %c", DecodeByte(c), DecodeByte(got), DecodeByte(want))
		}
	}
}

func TestComplementIsInvolution(t *testing.T) {
	for c := Code(0); c < Alphabet; c++ {
		if Complement(Complement(c)) != c {
			t.Errorf("Complement not an involution at %d", c)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []byte("ACGTACGTTTGGCCAA")
	codes := Encode(in)
	out := Decode(codes)
	if !bytes.Equal(in, out) {
		t.Errorf("round trip: got %q want %q", out, in)
	}
}

func TestDecodeInvalidToN(t *testing.T) {
	codes := Encode([]byte("ACNNGT"))
	out := Decode(codes)
	if string(out) != "ACNNGT" {
		t.Errorf("got %q want ACNNGT", out)
	}
}

func TestReverseComplementKnown(t *testing.T) {
	cases := []struct{ in, want string }{
		{"A", "T"},
		{"AC", "GT"},
		{"ACGT", "ACGT"}, // palindrome
		{"AAAA", "TTTT"},
		{"GATTACA", "TGTAATC"},
	}
	for _, c := range cases {
		got := string(Decode(ReverseComplement(Encode([]byte(c.in)))))
		if got != c.want {
			t.Errorf("RC(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestReverseComplementPreservesInvalidPositions(t *testing.T) {
	in := Encode([]byte("ANG"))
	out := ReverseComplement(in)
	// reverse of (A, N, G) complemented = (C, N, T)
	if out[0] != C || out[1] != Invalid || out[2] != T {
		t.Errorf("got %v", out)
	}
}

func TestReverseComplementInPlaceMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(33)
		s := make([]Code, n)
		for i := range s {
			s[i] = Code(rng.Intn(4))
		}
		want := ReverseComplement(s)
		got := append([]Code(nil), s...)
		ReverseComplementInPlace(got)
		if !bytes.Equal(want, got) {
			t.Fatalf("n=%d: in-place %v != copy %v", n, got, want)
		}
	}
}

func TestReverseComplementInvolutionProperty(t *testing.T) {
	f := func(raw []byte) bool {
		s := make([]Code, len(raw))
		for i, b := range raw {
			s[i] = Code(b % 4)
		}
		back := ReverseComplement(ReverseComplement(s))
		return bytes.Equal(s, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeQuickRoundTrip(t *testing.T) {
	letters := []byte("ACGT")
	f := func(raw []byte) bool {
		ascii := make([]byte, len(raw))
		for i, b := range raw {
			ascii[i] = letters[b%4]
		}
		return bytes.Equal(Decode(Encode(ascii)), ascii)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidDistinctFromCodesAndSentinels(t *testing.T) {
	// Bank sentinels use 0xF0..0xFD; Invalid must not collide with them
	// or with any real code.
	if Invalid < Alphabet {
		t.Fatal("Invalid collides with a nucleotide code")
	}
	if Invalid >= 0xF0 {
		t.Fatal("Invalid collides with the bank sentinel range")
	}
}
