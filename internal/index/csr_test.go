package index

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/seed"
)

// chainRef is the legacy linked-chain index builder (the pre-CSR
// implementation, kept verbatim as a test oracle): Dict[c] heads a
// position-ascending chain threaded through next[], -1-terminated.
type chainRef struct {
	dict, next []int32
}

func buildChainRef(b *bank.Bank, opts Options) *chainRef {
	opts = opts.normalized()
	n := seed.NumCodes(opts.W)
	r := &chainRef{
		dict: make([]int32, n),
		next: make([]int32, len(b.Data)),
	}
	for i := range r.dict {
		r.dict[i] = -1
	}
	for i := range r.next {
		r.next[i] = -1
	}
	var maskBits []bool
	if opts.Dust != nil {
		maskBits = opts.Dust.MaskBits(b.Data)
	}
	tails := make([]int32, n)
	for i := range tails {
		tails[i] = -1
	}
	step := int32(opts.SampleStep)
	phase := int32(opts.SamplePhase)
	w := opts.W
	seed.ForEach(b.Data, w, func(pos int32, c seed.Code) {
		if step > 1 && pos%step != phase {
			return
		}
		if maskBits != nil {
			for q := pos; q < pos+int32(w); q++ {
				if maskBits[q] {
					return
				}
			}
		}
		if t := tails[c]; t < 0 {
			r.dict[c] = pos
		} else {
			r.next[t] = pos
		}
		tails[c] = pos
	})
	return r
}

func (r *chainRef) walk(c seed.Code) []int32 {
	var out []int32
	for p := r.dict[c]; p >= 0; p = r.next[p] {
		out = append(out, p)
	}
	return out
}

// equalOcc compares a chain walk against a CSR slice view.
func equalOcc(chain, csr []int32) bool {
	if len(chain) != len(csr) {
		return false
	}
	for i := range chain {
		if chain[i] != csr[i] {
			return false
		}
	}
	return true
}

// total counts the positions the chains hold — a sweep of the oracle's
// own arrays, independent of any index lookup.
func (r *chainRef) total() int {
	n := 0
	for _, p := range r.dict {
		if p >= 0 {
			n++
		}
	}
	for _, p := range r.next {
		if p >= 0 {
			n++
		}
	}
	return n
}

// matchesChainRef reports whether ix lists, for every directory entry,
// exactly the oracle's chain, and nothing of the oracle is missing: the
// runs total Indexed and so do the chains.
func matchesChainRef(ix *Index, ref *chainRef) bool {
	sum, same := 0, true
	eachCode(ix, func(c seed.Code, occ []int32) {
		same = same && equalOcc(ref.walk(c), occ)
		sum += len(occ)
	})
	return same && sum == ix.Indexed && ref.total() == ix.Indexed
}

// Property: every directory entry's occurrence run equals the legacy
// chain walk, and the runs total the chains — across random banks, dust
// on/off, and SampleStep in {1, 2, W} (every position, paper half-words,
// BLAT tiles).
func TestQuickCSRMatchesLegacyChain(t *testing.T) {
	f := func(seedVal int64, nRaw, wRaw, cfgRaw uint8) bool {
		w := int(wRaw)%4 + 3
		opts := Options{W: w}
		switch cfgRaw % 3 {
		case 1:
			opts.SampleStep = 2
			opts.SamplePhase = int(cfgRaw/3) % 2
		case 2:
			opts.SampleStep = w
		}
		if cfgRaw%2 == 1 {
			opts.Dust = dust.New(16, 1.5)
		}
		b := randomBank(seedVal, int(nRaw)%5+1, 200)
		return matchesChainRef(Build(b, opts), buildChainRef(b, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The build's sort takes ⌈2W/11⌉ passes: one at W=4, two at W=11, three
// at W=12. Each digit count is checked against the chain oracle on a
// bank large enough to fill several digits' worth of buckets.
func TestSortDigitCountsMatchLegacyChain(t *testing.T) {
	b := randomBank(12, 5, 6000)
	for _, w := range []int{4, 11, 12} {
		for _, opts := range []Options{{W: w}, {W: w, SampleStep: 2}, {W: w, Dust: dust.New(0, 0)}} {
			if !matchesChainRef(Build(b, opts), buildChainRef(b, opts)) {
				t.Errorf("W=%d opts=%+v: index differs from the chain oracle", w, opts)
			}
		}
	}
}

// The parallel build must be byte-identical to the serial build — the
// shards scan ascending ranges and are concatenated in shard order, so
// the CSR output is canonical for any worker count — and both must
// match the chain oracle. The bank is made large enough to clear the
// minParallelData serial fallback.
func TestParallelBuildMatchesSerial(t *testing.T) {
	b := randomBank(77, 4, 40000)
	if len(b.Data) < minParallelData {
		t.Fatalf("test bank too small to exercise the parallel path: %d", len(b.Data))
	}
	for _, opts := range []Options{
		{W: 8},
		{W: 8, SampleStep: 2, SamplePhase: 1},
		{W: 8, Dust: dust.New(0, 0)},
	} {
		serial := opts
		serial.Workers = 1
		want := Build(b, serial)
		if !matchesChainRef(want, buildChainRef(b, opts)) {
			t.Fatalf("opts=%+v: serial build differs from the chain oracle", opts)
		}
		for _, workers := range []int{2, 3, 7} {
			par := opts
			par.Workers = workers
			got := Build(b, par)
			if got.Indexed != want.Indexed || got.MaskedOut != want.MaskedOut || got.SampledOut != want.SampledOut {
				t.Fatalf("workers=%d counters differ: %+v vs %+v", workers, got, want)
			}
			if !slices.Equal(got.Directory(), want.Directory()) || !slices.Equal(got.Offsets, want.Offsets) {
				t.Fatalf("workers=%d opts=%+v: directory differs from the serial build", workers, opts)
			}
			for i := range want.Pos {
				if got.Pos[i] != want.Pos[i] {
					t.Fatalf("workers=%d opts=%+v: Pos[%d] = %d, want %d", workers, opts, i, got.Pos[i], want.Pos[i])
				}
			}
		}
	}
}
