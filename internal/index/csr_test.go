package index

import (
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

// Property: for every seed code, the CSR Occ slice equals the legacy
// chain walk — across random banks, dust on/off, and SampleStep in
// {1, 2, W} (every position, paper half-words, BLAT tiles).
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
		ix := Build(b, opts)
		ref := buildChainRef(b, opts)
		for c := 0; c < ix.NumCodes(); c++ {
			if !equalOcc(ref.walk(seed.Code(c)), ix.Occ(seed.Code(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the sidecar arrays agree with the Bank lookups they
// precompute, for every occurrence.
func TestQuickSidecarMatchesBank(t *testing.T) {
	f := func(seedVal int64, nRaw uint8) bool {
		const w = 4
		b := randomBank(seedVal, int(nRaw)%5+1, 150)
		ix := Build(b, Options{W: w})
		for i, p := range ix.Pos {
			s := b.SeqAt(p)
			lo, hi := b.SeqBounds(int(s))
			if ix.OccSeq[i] != s || ix.OccLo[i] != lo || ix.OccHi[i] != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The parallel build must be byte-identical to the serial build — the
// shard cuts and per-shard cursor blocks are designed so the CSR output
// is canonical for any worker count. The bank is made large enough to
// clear the minParallelData serial fallback.
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
		for _, workers := range []int{2, 3, 7} {
			par := opts
			par.Workers = workers
			got := Build(b, par)
			if got.Indexed != want.Indexed || got.MaskedOut != want.MaskedOut || got.SampledOut != want.SampledOut {
				t.Fatalf("workers=%d counters differ: %+v vs %+v", workers, got, want)
			}
			for i := range want.Starts {
				if got.Starts[i] != want.Starts[i] {
					t.Fatalf("workers=%d opts=%+v: Starts[%d] = %d, want %d", workers, opts, i, got.Starts[i], want.Starts[i])
				}
			}
			for i := range want.Pos {
				if got.Pos[i] != want.Pos[i] {
					t.Fatalf("workers=%d opts=%+v: Pos[%d] = %d, want %d", workers, opts, i, got.Pos[i], want.Pos[i])
				}
				if got.OccSeq[i] != want.OccSeq[i] || got.OccLo[i] != want.OccLo[i] || got.OccHi[i] != want.OccHi[i] {
					t.Fatalf("workers=%d: sidecar mismatch at %d", workers, i)
				}
			}
		}
	}
}
