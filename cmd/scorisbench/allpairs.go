package main

import (
	"context"
	"fmt"

	scoris "repro"
)

// allpairsWorkload is svc_allpairs: every ordered pair of a few
// resident genomic banks, compared through buffered /v1/compare. Both
// indexes of every request are resident, so step 2 is the request.
type allpairsWorkload struct {
	svc
	base   string
	names  []string
	fastas [][]byte
	plan   []svcOp // every ordered pair once, in seeded order

	banks []*scoris.Bank
	// cache holds the serial references' indexes. The replay reuses
	// them: like the server's, they have been resident for a while,
	// and on this kind of host a freshly built index is slower to
	// probe than a settled one (by a fifth, until the kernel has
	// backed it with huge pages).
	cache *scoris.IndexCache
	ref   map[[2]int][]byte
}

func (w *allpairsWorkload) roundLen() int { return len(w.plan) }

func (w *allpairsWorkload) setUp(ctx context.Context) error {
	if err := w.init(); err != nil {
		return err
	}
	sz := w.env.sz
	genes, _ := w.env.genePool(sz.genomicPoolGenes)
	w.base = w.serve(scoris.NewCompareServer(w.workerConfig()).Handler())
	for b := 0; b < sz.genomicBanks; b++ {
		name := fmt.Sprintf("g%d", b)
		recs := genomicSeqs(w.env.rng(streamBank+int64(b)), genomicSpec{
			prefix: name, numSeqs: sz.genomicSeqs, seqLen: sz.genomicSeqLen,
			families: 4, unitLen: 300, copies: 10, genesPer100k: 2.5, lowPer100k: 3,
		}, genes)
		text := fastaText(recs)
		path, err := w.writeBank(name, text)
		if err != nil {
			return err
		}
		if _, err := w.registerPath(ctx, w.base, name, path); err != nil {
			return err
		}
		w.names, w.fastas = append(w.names, name), append(w.fastas, text)
	}
	for i := range w.names {
		for j := range w.names {
			if i != j {
				w.plan = append(w.plan, svcOp{kind: kindCompare, db: i, queries: []int{j}})
			}
		}
	}
	w.env.rng(streamOps).Shuffle(len(w.plan), func(i, j int) { w.plan[i], w.plan[j] = w.plan[j], w.plan[i] })
	// First touch: one compare per bank as db builds every index.
	var warm []func() error
	for i := range w.names {
		db, q := w.names[i], w.names[(i+1)%len(w.names)]
		warm = append(warm, func() error {
			_, err := w.compare(ctx, nil, 0, 0, "server", kindCompare, w.base, db, q, "", nil)
			return err
		})
	}
	return parallel(w.env.clients, warm)
}

func (w *allpairsWorkload) computeRefs(ctx context.Context) error {
	w.cache = scoris.NewIndexCache(len(w.fastas))
	for i, text := range w.fastas {
		b, err := scoris.ParseBank(w.names[i], text)
		if err != nil {
			return err
		}
		w.banks = append(w.banks, b)
	}
	w.ref = make(map[[2]int][]byte)
	refs := make([][]byte, len(w.plan))
	jobs := make([]func() error, len(w.plan))
	for k, op := range w.plan {
		jobs[k] = func() (err error) {
			refs[k], err = serialReference(w.cache, w.banks[op.db], w.banks[op.queries[0]])
			return err
		}
	}
	if err := parallel(w.env.clients, jobs); err != nil {
		return err
	}
	for k, op := range w.plan {
		w.ref[[2]int{op.db, op.queries[0]}] = refs[k]
	}
	return nil
}

func (w *allpairsWorkload) refs() [][]byte {
	var out [][]byte
	for i := range w.names {
		for j := range w.names {
			if i != j {
				out = append(out, w.ref[[2]int{i, j}])
			}
		}
	}
	return out
}

func (w *allpairsWorkload) runOp(ctx context.Context, i int, tr *tracer) (s opSample) {
	op := w.plan[i%len(w.plan)]
	s.kind = op.kind
	root := tr.begin(0, i, layerOp, wlSvcAllpairs)
	defer timeOp(tr, root, &s)()
	s.bytes, s.err = w.compare(ctx, tr, root, i, "server", kindCompare, w.base,
		w.names[op.db], w.names[op.queries[0]], "", w.ref[[2]int{op.db, op.queries[0]}])
	return s
}

func (w *allpairsWorkload) counters(ctx context.Context) (metricSet, error) {
	return w.serverCounters(ctx, w.base)
}

func (w *allpairsWorkload) layers(ctx context.Context, tr *tracer, firstOp int, ms metricSet) error {
	var agg coreAgg
	var replay []float64
	for k, op := range w.plan {
		q := op.queries[0]
		d, err := compareReplay(tr, firstOp+k, w.cache, w.banks[op.db], w.banks[q], nil, w.ref[[2]int{op.db, q}], &agg)
		if err != nil {
			return err
		}
		replay = append(replay, d)
	}
	agg.report(ms)
	ms["server.http_overhead_ms"] = ms["server.compare_p50_ms"] - median(replay)
	return cacheHitReplay(tr, firstOp+len(w.plan), w.banks[0], ms)
}

func (w *allpairsWorkload) shape(ms metricSet) []string {
	var bad []string
	if ms["core.step2_share"] < 0.9 {
		bad = append(bad, fmt.Sprintf("core.step2_share = %.3f, want >= 0.9: step 2 no longer dominates svc_allpairs", ms["core.step2_share"]))
	}
	if ms["ixcache.builds"] != 0 {
		bad = append(bad, fmt.Sprintf("ixcache.builds = %v per round, want 0: the banks are no longer resident", ms["ixcache.builds"]))
	}
	return append(bad, mustBeZero(ms, "server.rejected", "server.abandoned", "server.timed_out")...)
}
