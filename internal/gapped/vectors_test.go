package gapped

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"
)

// The vectors file pins the band's semantics — which cells the X-drop
// keeps, how ties between states and between equal-scoring cells fall,
// where the Iy chain past the band stops — as recorded outputs, so the
// kernel can be rewritten without keeping a second kernel to compare
// with. It was written by the two-row kernel of PR 21; regenerate it
// only on a deliberate change of semantics:
//
//	go test ./internal/gapped -run TestExtendVectors -update-vectors
var updateVectors = flag.Bool("update-vectors", false, "rewrite testdata/extend_vectors.txt from the current kernel")

const (
	vectorsPath  = "testdata/extend_vectors.txt"
	vectorsCount = 2400
)

// vectorParams are the six parameter sets of the vectors: the default
// scoring under a tight, the default and a wide X-drop, free gap
// opening, and match rewards above one.
var vectorParams = [6]Params{
	{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 6},
	{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 25},
	{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2, XDrop: 150},
	{Match: 1, Mismatch: 2, GapOpen: 0, GapExtend: 1, XDrop: 25},
	{Match: 2, Mismatch: 3, GapOpen: 4, GapExtend: 1, XDrop: 25},
	{Match: 5, Mismatch: 4, GapOpen: 10, GapExtend: 3, XDrop: 150},
}

const (
	armRight = iota
	armLeft
	armBoth
)

// vectorCase is one extension problem, a pure function of its seed.
type vectorCase struct {
	prm                Params
	d1, d2             []byte
	m1, m2             int32 // anchor
	lo1, hi1, lo2, hi2 int32
	arm                int
}

// newVectorCase derives case number seed: a random sequence of 1–900
// bases and a copy with 0–30 % substitutions and 0–8 % indels, a few
// ambiguous bases on either side, in one case of three a tail replaced
// by noise, an anchor somewhere inside that is on the true diagonal or
// up to three bases off it.
func newVectorCase(seed int64) vectorCase {
	rng := rand.New(rand.NewSource(seed))
	c := vectorCase{prm: vectorParams[seed%6], arm: int(seed/6) % 3}
	n := 1 + rng.Intn(900)
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(40) // short arms meet the bounds, not the X-drop
	}
	sub := rng.Float64() * 0.30
	indel := rng.Float64() * 0.08
	s1 := make([]byte, n)
	for i := range s1 {
		s1[i] = byte(rng.Intn(4))
	}
	anchor1 := rng.Intn(n + 1)
	anchor2 := 0
	s2 := make([]byte, 0, n+n/8)
	for i, b := range s1 {
		if i == anchor1 {
			anchor2 = len(s2)
		}
		switch r := rng.Float64(); {
		case r < indel/2:
		case r < indel:
			s2 = append(s2, b, byte(rng.Intn(4)))
		case r < indel+sub:
			s2 = append(s2, byte(rng.Intn(4)))
		default:
			s2 = append(s2, b)
		}
	}
	if anchor1 == n {
		anchor2 = len(s2)
	}
	if len(s2) == 0 {
		s2 = append(s2, byte(rng.Intn(4)))
	}
	if rng.Intn(3) == 0 {
		for j := len(s2) / 2; j < len(s2); j++ {
			s2[j] = byte(rng.Intn(4))
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		s1[rng.Intn(len(s1))] = 0xEE
		s2[rng.Intn(len(s2))] = 0xEE
	}
	if rng.Intn(3) == 0 {
		anchor2 += rng.Intn(7) - 3
	}
	if anchor2 < 0 {
		anchor2 = 0
	}
	if anchor2 > len(s2) {
		anchor2 = len(s2)
	}
	c.d1 = append(append([]byte{0xF0}, s1...), 0xF0)
	c.d2 = append(append([]byte{0xF0}, s2...), 0xF0)
	c.lo1, c.hi1 = 1, int32(len(s1))+1
	c.lo2, c.hi2 = 1, int32(len(s2))+1
	c.m1, c.m2 = int32(anchor1)+1, int32(anchor2)+1
	return c
}

// run extends c's arm(s) on e and returns the line the vectors file
// holds for it.
func (c vectorCase) run(e *Extender) string {
	var r Result
	var ops []byte
	switch c.arm {
	case armRight:
		r, ops = e.ExtendRightPath(c.d1, c.d2, c.m1, c.hi1, c.m2, c.hi2)
	case armLeft:
		r, ops = e.ExtendLeftPath(c.d1, c.d2, c.m1, c.lo1, c.m2, c.lo2)
	default:
		r, ops = e.ExtendBothPath(c.d1, c.d2, c.m1, c.m2, c.lo1, c.hi1, c.lo2, c.hi2)
	}
	h := fnv.New64a()
	h.Write(ops)
	return fmt.Sprintf("%d %d %d %d %d %d %d %d %016x",
		r.Score, r.Len1, r.Len2, r.Matches, r.Mismatches, r.GapOpens, r.GapBases1, r.GapBases2, h.Sum64())
}

// TestExtendVectors replays the recorded cases: Result and edit path of
// every one must be what the file says.
func TestExtendVectors(t *testing.T) {
	var exts [6]*Extender
	for i, p := range vectorParams {
		exts[i] = NewExtender(p)
	}
	if *updateVectors {
		f, err := os.Create(vectorsPath)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		fmt.Fprintln(w, "# seed score len1 len2 matches mismatches gapopens gapbases1 gapbases2 fnv64a(path)")
		for seed := int64(0); seed < vectorsCount; seed++ {
			fmt.Fprintf(w, "%d %s\n", seed, newVectorCase(seed).run(exts[seed%6]))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(vectorsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	replayed := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var seed int64
		if _, err := fmt.Sscan(line, &seed); err != nil {
			t.Fatalf("bad vector line %q: %v", line, err)
		}
		if got := fmt.Sprintf("%d %s", seed, newVectorCase(seed).run(exts[seed%6])); got != line {
			t.Errorf("case %d (params %+v, arm %d):\n got  %s\n want %s", seed, vectorParams[seed%6], newVectorCase(seed).arm, got, line)
		}
		replayed++
	}
	if replayed < 2000 {
		t.Fatalf("replayed %d vectors, want at least 2000", replayed)
	}
}
