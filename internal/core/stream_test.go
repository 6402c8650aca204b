package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/index"
)

// streamVariants covers the option shapes whose engine bodies differ
// enough to threaten stream/buffered equivalence: strand handling and
// the ordered-rule-off HSP dedup.
func streamVariants() map[string]func(*Options) {
	return map[string]func(*Options){
		"default":     func(o *Options) {},
		"bothStrands": func(o *Options) { o.Strand = BothStrands },
		"unordered":   func(o *Options) { o.OrderedRule = false },
	}
}

// counters strips the wall-clock fields from m, leaving the counts a
// collector must reproduce exactly.
func counters(m Metrics) Metrics {
	m.IndexTime, m.Step2Time, m.Step3Time, m.Step4Time = 0, 0, 0, 0
	return m
}

func TestCompareStreamMatchesBuffered(t *testing.T) {
	b1, b2 := testBanks(21, 8, 8, 6, 400)
	for name, tweak := range streamVariants() {
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			tweak(&opt)

			want, err := Compare(b1, b2, opt)
			if err != nil {
				t.Fatal(err)
			}

			var got []align.Alignment
			emits := 0
			lastSeq := -1
			res, err := CompareStream(context.Background(), b1, b2, opt,
				func(s int, g []align.Alignment) error {
					if s != lastSeq+1 {
						t.Fatalf("emit order: got seq %d after %d", s, lastSeq)
					}
					lastSeq = s
					emits++
					for i := range g {
						if int(g[i].Seq2) != s {
							t.Fatalf("group %d contains alignment for seq %d", s, g[i].Seq2)
						}
					}
					got = append(got, g...)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if emits != b2.NumSeqs() {
				t.Fatalf("emit called %d times, want %d (once per bank-2 seq)", emits, b2.NumSeqs())
			}
			if res.Alignments != nil {
				t.Error("stream Result.Alignments should be nil")
			}
			if len(want.Alignments) == 0 {
				t.Fatal("test banks produced no alignments; variant proves nothing")
			}
			if !reflect.DeepEqual(got, want.Alignments) {
				t.Fatalf("streamed concatenation differs from buffered result:\nstream %d alignments, buffered %d",
					len(got), len(want.Alignments))
			}
			if counters(res.Metrics) != counters(want.Metrics) {
				t.Errorf("metrics diverge: stream %+v buffered %+v", res.Metrics, want.Metrics)
			}

			// The prepared-bank collector is the same stream, collected.
			p1, p2, err := Prepare(nil, b1, b2, opt)
			if err != nil {
				t.Fatal(err)
			}
			prepared, err := CompareWithIndex(p1, p2, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(prepared.Alignments, got) {
				t.Fatalf("CompareWithIndex differs from the streamed concatenation: %d vs %d alignments",
					len(prepared.Alignments), len(got))
			}
			if counters(prepared.Metrics) != counters(res.Metrics) {
				t.Errorf("metrics diverge: prepared %+v stream %+v", prepared.Metrics, res.Metrics)
			}
		})
	}
}

// streamEngine runs one engine's stream entry point, db b1 against
// query bank b2, under its default options.
type streamEngine func(ctx context.Context, b1, b2 *bank.Bank, emit align.Emit) error

// streamEngines holds the three engines' stream entry points, BLASTN on
// both strands too: the cancellation and emit-error contract is one
// contract, so it is pinned once for all of them.
func streamEngines() map[string]streamEngine {
	blastnStream := func(bothStrands bool) streamEngine {
		return func(ctx context.Context, b1, b2 *bank.Bank, emit align.Emit) error {
			opt := blastn.DefaultOptions()
			opt.BothStrands = bothStrands
			_, err := blastn.CompareStream(ctx, b1, b2, opt, emit)
			return err
		}
	}
	return map[string]streamEngine{
		"oris": func(ctx context.Context, b1, b2 *bank.Bank, emit align.Emit) error {
			_, err := CompareStream(ctx, b1, b2, DefaultOptions(), emit)
			return err
		},
		"blat": func(ctx context.Context, b1, b2 *bank.Bank, emit align.Emit) error {
			opt := blat.DefaultOptions()
			_, err := blat.CompareStreamWithIndex(ctx, index.Build(b1, opt.IndexOptions()), b2, opt, emit)
			return err
		},
		"blastn":            blastnStream(false),
		"blastnBothStrands": blastnStream(true),
	}
}

func TestCompareStreamCancelled(t *testing.T) {
	b1, b2 := testBanks(22, 6, 6, 4, 400)
	for name, run := range streamEngines() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := run(ctx, b1, b2, func(int, []align.Alignment) error {
				t.Fatal("emit called after cancellation")
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestCompareStreamCancelMidStream(t *testing.T) {
	b1, b2 := testBanks(23, 6, 6, 5, 400)
	for name, run := range streamEngines() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			emits := 0
			err := run(ctx, b1, b2, func(int, []align.Alignment) error {
				emits++
				cancel()
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if emits != 1 {
				t.Fatalf("emit called %d times after mid-stream cancel, want 1", emits)
			}
		})
	}
}

func TestCompareStreamEmitError(t *testing.T) {
	b1, b2 := testBanks(24, 6, 6, 5, 400)
	boom := errors.New("consumer gone")
	for name, run := range streamEngines() {
		t.Run(name, func(t *testing.T) {
			err := run(context.Background(), b1, b2, func(int, []align.Alignment) error { return boom })
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the emit error", err)
			}
		})
	}
}

func TestCompareStreamWithIndexMatchesCompareWithIndex(t *testing.T) {
	b1, b2 := testBanks(25, 8, 8, 6, 400)
	opt := DefaultOptions()
	p1, p2, err := Prepare(nil, b1, b2, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CompareWithIndex(p1, p2, opt)
	if err != nil {
		t.Fatal(err)
	}
	var got []align.Alignment
	if _, err := CompareStreamWithIndex(context.Background(), p1, p2, opt,
		func(_ int, g []align.Alignment) error {
			got = append(got, g...)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Alignments) {
		t.Fatal("prepared-bank stream differs from CompareWithIndex")
	}

	// The reuse contract still holds on the stream path.
	bad := DefaultOptions()
	bad.W = opt.W + 2
	if _, err := CompareStreamWithIndex(context.Background(), p1, p2, bad,
		func(int, []align.Alignment) error { return nil }); err == nil {
		t.Fatal("mismatched prepared banks accepted")
	}
}
