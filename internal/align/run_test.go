package align_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/blastn"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/index"
)

// engine runs one engine's stream entry point, db against queries.
type engine func(ctx context.Context, db, queries *bank.Bank, emit align.Emit) error

// engines are the stream entry points of the three engines, on one
// strand and, where the engine has a choice, on both: every one of them
// is its step 2 and a call of align.Run, so every one keeps Emit's
// contract.
func engines() []struct {
	name string
	both bool
	run  engine
} {
	oris := func(strand core.Strand) engine {
		return func(ctx context.Context, db, queries *bank.Bank, emit align.Emit) error {
			opt := core.DefaultOptions()
			opt.Strand = strand
			_, err := core.CompareStream(ctx, db, queries, opt, emit)
			return err
		}
	}
	baseline := func(bothStrands bool) engine {
		return func(ctx context.Context, db, queries *bank.Bank, emit align.Emit) error {
			opt := blastn.DefaultOptions()
			opt.BothStrands = bothStrands
			_, err := blastn.CompareStream(ctx, db, queries, opt, emit)
			return err
		}
	}
	tiles := func(ctx context.Context, db, queries *bank.Bank, emit align.Emit) error {
		opt := blat.DefaultOptions()
		_, err := blat.CompareStreamWithIndex(ctx, index.Build(db, opt.IndexOptions()), queries, opt, emit)
		return err
	}
	return []struct {
		name string
		both bool
		run  engine
	}{
		{"core", false, oris(core.PlusOnly)},
		{"core/both-strands", true, oris(core.BothStrands)},
		{"blat", false, tiles},
		{"blastn", false, baseline(false)},
		{"blastn/both-strands", true, baseline(true)},
	}
}

// contractBanks returns a db of random sequences and a query bank whose
// sequences are, in order: a copy of part of db sequence 0, a sequence
// shorter than W, a random sequence (no hits), the reverse complement of
// part of db sequence 1 (hits on the minus strand only), and a copy of
// part of db sequence 2.
func contractBanks() (db, queries *bank.Bank, hitless []int) {
	rng := rand.New(rand.NewSource(46))
	random := func(n int) []byte {
		s := make([]byte, n)
		for i := range s {
			s[i] = "ACGT"[rng.Intn(4)]
		}
		return s
	}
	var dbRecs []*fasta.Record
	for i := range 4 {
		dbRecs = append(dbRecs, &fasta.Record{ID: fmt.Sprintf("db%d", i), Seq: random(500)})
	}
	rc := dna.Decode(dna.ReverseComplement(dna.Encode(dbRecs[1].Seq[100:400])))
	queries = bank.New("queries", []*fasta.Record{
		{ID: "copy0", Seq: dbRecs[0].Seq[50:350]},
		{ID: "short", Seq: []byte("ACGTTGCA")},
		{ID: "random", Seq: random(300)},
		{ID: "rc1", Seq: rc},
		{ID: "copy2", Seq: dbRecs[2].Seq[120:420]},
	})
	return bank.New("db", dbRecs), queries, []int{1, 2}
}

// TestRunEmitContract pins align.Emit's contract on every engine: emit
// fires once per query sequence, in bank order, empty groups included;
// an emit error at group k is returned and no later group is emitted;
// a ctx cancelled inside emit at group k stops the run before group k+1.
func TestRunEmitContract(t *testing.T) {
	db, queries, hitless := contractBanks()
	n := queries.NumSeqs()
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			var sizes []int
			err := e.run(context.Background(), db, queries, func(s int, g []align.Alignment) error {
				if s != len(sizes) {
					t.Fatalf("emit for sequence %d after %d groups", s, len(sizes))
				}
				for _, a := range g {
					if int(a.Seq2) != s {
						t.Fatalf("group %d holds an alignment of sequence %d", s, a.Seq2)
					}
				}
				sizes = append(sizes, len(g))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sizes) != n {
				t.Fatalf("emit fired %d times, want %d", len(sizes), n)
			}
			for _, s := range hitless {
				if sizes[s] != 0 {
					t.Errorf("sequence %d (no hits) has %d alignments", s, sizes[s])
				}
			}
			if sizes[0] == 0 || sizes[4] == 0 {
				t.Errorf("group sizes %v: the copies of db sequences found nothing", sizes)
			}
			if (sizes[3] > 0) != e.both {
				t.Errorf("the reverse-complement copy has %d alignments on a both-strands=%v run", sizes[3], e.both)
			}

			boom := errors.New("consumer gone")
			for k := range n {
				emits := 0
				err := e.run(context.Background(), db, queries, func(s int, _ []align.Alignment) error {
					emits++
					if s == k {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) || emits != k+1 {
					t.Errorf("emit error at group %d: err %v after %d emits, want the emit error after %d", k, err, emits, k+1)
				}
			}

			for k := range n - 1 {
				ctx, cancel := context.WithCancel(context.Background())
				emits := 0
				err := e.run(ctx, db, queries, func(s int, _ []align.Alignment) error {
					emits++
					if s == k {
						cancel()
					}
					return nil
				})
				cancel()
				if !errors.Is(err, context.Canceled) || emits != k+1 {
					t.Errorf("cancel in emit at group %d: err %v after %d emits, want context.Canceled after %d", k, err, emits, k+1)
				}
			}
		})
	}
}
