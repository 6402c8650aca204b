package seed

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dna"
)

func enc(s string) []byte { return dna.Encode([]byte(s)) }

func TestEncodePaperFormula(t *testing.T) {
	// codeSEED(S) = sum 4^i * codeNT(S_i), S_0 least significant.
	// "CA" -> C=1 at i=0, A=0 at i=1 -> 1.
	c, ok := Encode(enc("CA"), 2)
	if !ok || c != 1 {
		t.Errorf("CA: got %d,%v want 1,true", c, ok)
	}
	// "AC" -> A=0 + 4*C=4.
	c, ok = Encode(enc("AC"), 2)
	if !ok || c != 4 {
		t.Errorf("AC: got %d,%v want 4,true", c, ok)
	}
	// "GT" -> G=3 + 4*T(2)=8 -> 11.
	c, ok = Encode(enc("GT"), 2)
	if !ok || c != 11 {
		t.Errorf("GT: got %d,%v want 11,true", c, ok)
	}
}

func TestEncodeAAAisZeroAndGGGisMax(t *testing.T) {
	c, _ := Encode(enc("AAAA"), 4)
	if c != 0 {
		t.Errorf("AAAA = %d, want 0 (lowest seed)", c)
	}
	c, _ = Encode(enc("GGGG"), 4)
	if int(c) != NumCodes(4)-1 {
		t.Errorf("GGGG = %d, want %d (highest seed)", c, NumCodes(4)-1)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, ok := Encode(enc("ACNT"), 4); ok {
		t.Error("window with N should not encode")
	}
	if _, ok := Encode(enc("AC"), 4); ok {
		t.Error("short window should not encode")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for w := 1; w <= 12; w += 3 {
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < 50; trial++ {
			c := Code(rng.Intn(NumCodes(w)))
			got, ok := Encode(Decode(c, w), w)
			if !ok || got != c {
				t.Fatalf("w=%d c=%d: round trip got %d,%v", w, c, got, ok)
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	c, _ := Encode(enc("ACGT"), 4)
	if s := String(c, 4); s != "ACGT" {
		t.Errorf("String = %q", s)
	}
}

func TestNumCodes(t *testing.T) {
	if NumCodes(1) != 4 || NumCodes(2) != 16 || NumCodes(11) != 4194304 {
		t.Errorf("NumCodes wrong: %d %d %d", NumCodes(1), NumCodes(2), NumCodes(11))
	}
}

func TestNumCodesPanicsOutOfRange(t *testing.T) {
	for _, w := range []int{0, -1, MaxW + 1} {
		func() {
			defer func() { recover() }()
			NumCodes(w)
			t.Errorf("NumCodes(%d) did not panic", w)
		}()
	}
}

func TestRollRightMatchesEncode(t *testing.T) {
	const w = 5
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	c, ok := Encode(data, w)
	if !ok {
		t.Fatal("encode failed")
	}
	for p := 1; p+w <= len(data); p++ {
		c = RollRight(c, data[p+w-1], w)
		want, _ := Encode(data[p:], w)
		if c != want {
			t.Fatalf("pos %d: rolled %d, direct %d", p, c, want)
		}
	}
}

func TestRollLeftMatchesEncode(t *testing.T) {
	const w = 7
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 150)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	start := len(data) - w
	c, _ := Encode(data[start:], w)
	for p := start - 1; p >= 0; p-- {
		c = RollLeft(c, data[p], data[p+w], w)
		want, _ := Encode(data[p:], w)
		if c != want {
			t.Fatalf("pos %d: rolled %d, direct %d", p, c, want)
		}
	}
}

func TestRollInverseProperty(t *testing.T) {
	f := func(raw []byte, wRaw uint8) bool {
		w := 2 + int(wRaw)%10
		if len(raw) < w+1 {
			return true
		}
		data := make([]byte, len(raw))
		for i, b := range raw {
			data[i] = b % 4
		}
		c0, _ := Encode(data, w)
		// roll right then left must restore the code
		c1 := RollRight(c0, data[w], w)
		back := RollLeft(c1, data[0], data[w], w)
		return back == c0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForEachOnCleanData(t *testing.T) {
	data := enc("ACGTACG")
	var pos []int32
	var codes []Code
	ForEach(data, 4, func(p int32, c Code) {
		pos = append(pos, p)
		codes = append(codes, c)
	})
	if !reflect.DeepEqual(pos, []int32{0, 1, 2, 3}) {
		t.Fatalf("positions = %v", pos)
	}
	for i, p := range pos {
		want, _ := Encode(data[p:], 4)
		if codes[i] != want {
			t.Errorf("pos %d: code %d want %d", p, codes[i], want)
		}
	}
}

func TestForEachSkipsInvalidWindows(t *testing.T) {
	data := enc("ACGTNACGT")
	var pos []int32
	ForEach(data, 4, func(p int32, c Code) { pos = append(pos, p) })
	// valid windows: 0 (ACGT) and 5 (ACGT); windows 1..4 touch the N.
	if !reflect.DeepEqual(pos, []int32{0, 5}) {
		t.Fatalf("positions = %v", pos)
	}
}

func TestForEachSkipsSentinels(t *testing.T) {
	data := append(enc("ACG"), 0xF0)
	data = append(data, enc("TACG")...)
	var pos []int32
	ForEach(data, 3, func(p int32, c Code) { pos = append(pos, p) })
	if !reflect.DeepEqual(pos, []int32{0, 4, 5}) {
		t.Fatalf("positions = %v", pos)
	}
}

func TestForEachShortData(t *testing.T) {
	if n := Count(enc("ACG"), 4); n != 0 {
		t.Errorf("Count on short data = %d", n)
	}
	if n := Count(nil, 4); n != 0 {
		t.Errorf("Count on nil = %d", n)
	}
}

func TestForEachMatchesNaiveEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	letters := []byte("ACGTN")
	for trial := 0; trial < 40; trial++ {
		w := 2 + rng.Intn(6)
		n := rng.Intn(120)
		ascii := make([]byte, n)
		for i := range ascii {
			ascii[i] = letters[rng.Intn(len(letters))]
		}
		data := dna.Encode(ascii)
		type pc struct {
			p int32
			c Code
		}
		var got []pc
		ForEach(data, w, func(p int32, c Code) { got = append(got, pc{p, c}) })
		var want []pc
		for p := 0; p+w <= n; p++ {
			if c, ok := Encode(data[p:], w); ok {
				want = append(want, pc{int32(p), c})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (w=%d): got %v want %v", trial, w, got, want)
		}
	}
}

// Seed order property from the paper: S_A < S_B iff codeSEED(S_A) <
// codeSEED(S_B), and the order is total over all 4^w seeds.
func TestSeedOrderIsTotal(t *testing.T) {
	const w = 3
	seen := make(map[Code]bool)
	for c := 0; c < NumCodes(w); c++ {
		code, ok := Encode(Decode(Code(c), w), w)
		if !ok || seen[code] {
			t.Fatalf("code %d: duplicate or invalid", c)
		}
		seen[code] = true
	}
	if len(seen) != NumCodes(w) {
		t.Fatalf("only %d distinct codes", len(seen))
	}
}

func BenchmarkForEachW11(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(rng.Intn(4))
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		ForEach(data, 11, func(p int32, c Code) { sink += int(c) })
	}
	_ = sink
}
