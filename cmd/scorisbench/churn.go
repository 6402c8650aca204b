package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	scoris "repro"
)

// churnWorkload is svc_churn: every op uploads a query bank the server
// has never held, compares it against one resident EST db through one
// of the result sinks, and deletes it. The query side of every compare
// misses the index cache.
type churnWorkload struct {
	svc
	base    string
	dbFasta []byte
	pool    [][]byte // query banks, as FASTA; an op's bank is plan-fixed
	plan    []svcOp

	db        *scoris.Bank
	poolBanks []*scoris.Bank
	cache     *scoris.IndexCache // the serial references' db index, reused by the replay
	ref       [][]byte           // oris reference per pool bank
	refBlat   map[int][]byte     // blat reference of the pool banks blat ops use
}

// churnMix is the op list of svc_churn: 45 % buffered, 30 % streamed,
// 10 % batch-of-4, 10 % async job, 5 % blat engine.
var churnMix = []kindCount{{kindCompare, 9}, {kindStream, 6}, {kindBatch, 2}, {kindJob, 2}, {kindBlat, 1}}

// cacheEntries is the server's `-cache` on svc_churn: room for the
// db's index and two query indexes per client, as an operator serving
// single-use query banks would set it. The default of 32 keeps the 32
// most recent query indexes of banks already deleted — 34 MB each,
// whatever the bank's size — and on a small VM the gigabyte of heap
// that churns through makes every number of this workload swing.
func (w *churnWorkload) cacheEntries() int { return 2 + 2*w.env.clients }

const batchSize = 4

func (w *churnWorkload) roundLen() int { return len(w.plan) }

func (w *churnWorkload) setUp(ctx context.Context) error {
	if err := w.init(); err != nil {
		return err
	}
	sz := w.env.sz
	dbGenes, queryGenes := w.env.genePool(sz.poolGenes)
	w.dbFasta = fastaText(estReads(w.env.rng(streamDB), estSpec{"db", sz.churnDBSeqs, sz.estLen, serviceGeneFrac}, dbGenes))
	for b := 0; b < sz.churnPool; b++ {
		recs := estReads(w.env.rng(streamBank+int64(b)), estSpec{fmt.Sprintf("r%d", b), sz.churnReads, sz.estLen, serviceGeneFrac}, queryGenes)
		w.pool = append(w.pool, fastaText(recs))
	}
	dbPath, err := w.writeBank("db", w.dbFasta)
	if err != nil {
		return err
	}
	cfg := w.workerConfig()
	cfg.CacheEntries = w.cacheEntries()
	w.base = w.serve(scoris.NewCompareServer(cfg).Handler())
	if _, err := w.registerPath(ctx, w.base, "db", dbPath); err != nil {
		return err
	}
	slot := 0
	for _, kind := range w.env.shuffledKinds(churnMix) {
		op := svcOp{kind: kind}
		n := 1
		if kind == kindBatch {
			n = batchSize
		}
		for k := 0; k < n; k++ {
			op.queries = append(op.queries, slot%len(w.pool))
			slot++
		}
		w.plan = append(w.plan, op)
	}
	// First touch: the db's oris index and its blat tile index.
	for _, extra := range []string{"", `,"engine":"blat"`} {
		if err := w.upload(ctx, nil, 0, 0, w.base, "warm", w.pool[0]); err != nil {
			return err
		}
		if _, err := w.compare(ctx, nil, 0, 0, "server", kindCompare, w.base, "db", "warm", extra, nil); err != nil {
			return err
		}
		if err := w.deleteBank(ctx, nil, 0, 0, w.base, "warm"); err != nil {
			return err
		}
	}
	return nil
}

func (w *churnWorkload) computeRefs(ctx context.Context) error {
	var err error
	if w.db, err = scoris.ParseBank("db", w.dbFasta); err != nil {
		return err
	}
	w.cache = scoris.NewIndexCache(w.cacheEntries())
	w.poolBanks = make([]*scoris.Bank, len(w.pool))
	w.ref = make([][]byte, len(w.pool))
	jobs := make([]func() error, len(w.pool))
	for b := range w.pool {
		jobs[b] = func() (err error) {
			if w.poolBanks[b], err = scoris.ParseBank("query", w.pool[b]); err != nil {
				return err
			}
			w.ref[b], err = serialReference(w.cache, w.db, w.poolBanks[b])
			return err
		}
	}
	if err := parallel(w.env.clients, jobs); err != nil {
		return err
	}
	// The root package exports no blat entry point, so the blat
	// reference comes from a second, serial server driven in process:
	// one slot, one worker, one request at a time.
	serial := scoris.NewCompareServer(scoris.CompareServerConfig{MaxConcurrent: 1, RequestWorkers: 1})
	if err := serial.RegisterBank("db", w.db, true); err != nil {
		return err
	}
	w.refBlat = make(map[int][]byte)
	for _, op := range w.plan {
		if op.kind != kindBlat {
			continue
		}
		b := op.queries[0]
		if err := serial.RegisterBank("q", w.poolBanks[b], false); err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		serial.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compare",
			bytes.NewReader(compareBody("db", "q", `,"engine":"blat"`))))
		serial.DeregisterBank("q")
		if rec.Code != http.StatusOK {
			return fmt.Errorf("blat reference for pool bank %d: HTTP %d: %s", b, rec.Code, rec.Body.Bytes())
		}
		w.refBlat[b] = rec.Body.Bytes()
	}
	return nil
}

func (w *churnWorkload) refs() [][]byte {
	out := append([][]byte(nil), w.ref...)
	for _, op := range w.plan {
		if op.kind == kindBlat {
			out = append(out, w.refBlat[op.queries[0]])
		}
	}
	return out
}

func (w *churnWorkload) runOp(ctx context.Context, i int, tr *tracer) (s opSample) {
	op := w.plan[i%len(w.plan)]
	s.kind = op.kind
	root := tr.begin(0, i, layerOp, wlSvcChurn)
	defer timeOp(tr, root, &s)()
	names := make([]string, len(op.queries))
	want := make([][]byte, len(op.queries))
	for k, b := range op.queries {
		names[k] = fmt.Sprintf("q%d_%d", i, k)
		want[k] = w.ref[b]
		if s.err = w.upload(ctx, tr, root, i, w.base, names[k], w.pool[b]); s.err != nil {
			return s
		}
	}
	switch op.kind {
	case kindCompare:
		s.bytes, s.err = w.compare(ctx, tr, root, i, "server", kindCompare, w.base, "db", names[0], "", want[0])
	case kindStream:
		s.bytes, s.err = w.stream(ctx, tr, root, i, "server", w.base, "db", names[0], want[0])
	case kindBatch:
		s.bytes, s.err = w.batch(ctx, tr, root, i, "server", w.base, "db", names, want)
	case kindJob:
		s.bytes, s.err = w.job(ctx, tr, root, i, w.base, "db", names[0], want[0])
	case kindBlat:
		s.bytes, s.err = w.compare(ctx, tr, root, i, "server", kindBlat, w.base, "db", names[0], `,"engine":"blat"`, w.refBlat[op.queries[0]])
	}
	for _, name := range names {
		if err := w.deleteBank(ctx, tr, root, i, w.base, name); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s
}

func (w *churnWorkload) counters(ctx context.Context) (metricSet, error) {
	return w.serverCounters(ctx, w.base)
}

// replayBanks is how many pool banks the in-process replay compares.
const replayBanks = 16

func (w *churnWorkload) layers(ctx context.Context, tr *tracer, firstOp int, ms metricSet) error {
	var agg coreAgg
	var replay []float64
	n := min(replayBanks, len(w.pool))
	for b := 0; b < n; b++ {
		d, err := compareReplay(tr, firstOp+b, w.cache, w.db, nil, w.pool[b], w.ref[b], &agg)
		if err != nil {
			return err
		}
		replay = append(replay, d)
	}
	agg.report(ms)
	ms["server.http_overhead_ms"] = ms["server.compare_p50_ms"] - median(replay)
	if err := smallBuildReplay(tr, firstOp+n, w.poolBanks[0], ms); err != nil {
		return err
	}
	return cacheHitReplay(tr, firstOp+n+1, w.poolBanks[0], ms)
}

// shape: every oris compare must build the index of its uploaded
// query bank. The db's blat tile index adds at most one build per blat
// op: it is touched only twice a round, and the cache's LRU, filling
// with query indexes, may have dropped it in between.
func (w *churnWorkload) shape(ms metricSet) []string {
	var uploads, blats float64
	for _, op := range w.plan {
		if op.kind == kindBlat {
			blats++
		} else {
			uploads += float64(len(op.queries))
		}
	}
	var bad []string
	if got := ms["ixcache.builds"]; got < uploads || got > uploads+blats {
		bad = append(bad, fmt.Sprintf("ixcache.builds = %v per round, want %v to %v (one per uploaded query bank): svc_churn no longer misses the cache", got, uploads, uploads+blats))
	}
	return append(bad, mustBeZero(ms, "server.rejected", "server.abandoned", "server.timed_out")...)
}
