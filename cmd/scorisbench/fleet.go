package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	scoris "repro"
)

// fleetWorkload is fleet_hot: a router over two workers, every bank
// registered through the router and every index warm on both workers,
// so that what is left of a request is mostly relay and HTTP.
type fleetWorkload struct {
	svc
	router  string
	workers []string

	dbNames  []string
	dbOwner  []string // base URL of the worker the router sends the db's compares to
	dbFastas [][]byte
	qNames   []string
	qFastas  [][]byte
	plan     []svcOp

	dbs, queries []*scoris.Bank
	cache        *scoris.IndexCache // the serial references' indexes, reused by the replay
	ref          map[[2]int][]byte
}

// fleetMix is the op list of fleet_hot: 55 % buffered, 25 % streamed
// and 10 % batch-of-4 through the router, 10 % buffered sent straight
// to a worker (the baseline the relay cost is measured against).
var fleetMix = []kindCount{{kindCompare, 22}, {kindStream, 10}, {kindBatch, 4}, {kindDirect, 4}}

// pairedCompare names the routed half of a direct op's pair of spans.
const pairedCompare = "compare_paired"

const (
	fleetWorkers = 2
	// The router sends a db's compares to the worker that ranks first
	// for the db's content, so one db would leave a worker idle. Db
	// candidates are registered until fleetDBs of them have distinct
	// first owners. Each candidate is a coin flip: minDBCandidates are
	// always registered, so that set-up costs the same for 31 seeds in
	// 32, and maxDBCandidates bounds the search (it fails once in half
	// a million seeds).
	fleetDBs        = 2
	minDBCandidates = 6
	maxDBCandidates = 20
)

func (w *fleetWorkload) roundLen() int { return len(w.plan) }

func (w *fleetWorkload) setUp(ctx context.Context) error {
	if err := w.init(); err != nil {
		return err
	}
	sz := w.env.sz
	dbGenes, queryGenes := w.env.genePool(sz.poolGenes)
	rt := scoris.NewFleetRouter(scoris.FleetRouterConfig{})
	urlOf := map[string]string{}
	for k := 0; k < fleetWorkers; k++ {
		name, u := fmt.Sprintf("w%d", k), w.serve(scoris.NewCompareServer(w.workerConfig()).Handler())
		w.workers, urlOf[name] = append(w.workers, u), u
		if err := rt.AddWorker(name, u); err != nil {
			return err
		}
	}
	rt.Start()
	w.closers = append(w.closers, rt.Stop)
	w.router = w.serve(rt.Handler())

	owners := map[string]bool{}
	for c := 0; c < maxDBCandidates && (c < minDBCandidates || len(w.dbNames) < fleetDBs); c++ {
		name := fmt.Sprintf("db%d", c)
		text := fastaText(estReads(w.env.rng(streamDB+1000*int64(c)), estSpec{name, sz.fleetDBSeqs, sz.estLen, serviceGeneFrac}, dbGenes))
		path, err := w.writeBank(name, text)
		if err != nil {
			return err
		}
		r, err := w.registerPath(ctx, w.router, name, path)
		if err != nil {
			return err
		}
		var info struct {
			Owners []string `json:"owners"`
		}
		if err := json.Unmarshal(r.body, &info); err != nil || len(info.Owners) == 0 {
			return fmt.Errorf("register %s: no owners in %q", name, r.body)
		}
		if !owners[info.Owners[0]] && len(w.dbNames) < fleetDBs {
			owners[info.Owners[0]] = true
			w.dbNames, w.dbFastas = append(w.dbNames, name), append(w.dbFastas, text)
			w.dbOwner = append(w.dbOwner, urlOf[info.Owners[0]])
		}
	}
	if len(w.dbNames) < fleetDBs {
		return fmt.Errorf("no %d db banks with distinct first owners among %d candidates", fleetDBs, maxDBCandidates)
	}
	for q := 0; q < sz.fleetQueries; q++ {
		name := fmt.Sprintf("q%d", q)
		text := fastaText(estReads(w.env.rng(streamBank+int64(q)), estSpec{name, sz.fleetReads, sz.estLen, serviceGeneFrac}, queryGenes))
		if err := w.upload(ctx, nil, 0, 0, w.router, name, text); err != nil {
			return err
		}
		w.qNames, w.qFastas = append(w.qNames, name), append(w.qFastas, text)
	}
	// Every op takes its (db, query) pairs from one seeded deal of all
	// pairs, round and round, so that a round is the same amount of
	// work whatever the seed.
	var pairs [][2]int
	for d := range w.dbNames {
		for q := range w.qNames {
			pairs = append(pairs, [2]int{d, q})
		}
	}
	w.env.rng(streamOps+1).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	dealt := 0
	for _, kind := range w.env.shuffledKinds(fleetMix) {
		op := svcOp{kind: kind, db: pairs[dealt%len(pairs)][0]}
		n := 1
		if kind == kindBatch {
			n = batchSize
		}
		for k := 0; k < n; k++ {
			// A batch has one db: its queries are the next pairs' queries.
			op.queries = append(op.queries, pairs[dealt%len(pairs)][1])
			dealt++
		}
		w.plan = append(w.plan, op)
	}
	// Warm every (db, query) on both workers, then once through the
	// router.
	var warm []func() error
	for _, db := range w.dbNames {
		for _, q := range w.qNames {
			for _, base := range append(append([]string(nil), w.workers...), w.router) {
				warm = append(warm, func() error {
					_, err := w.compare(ctx, nil, 0, 0, "server", kindCompare, base, db, q, "", nil)
					return err
				})
			}
		}
	}
	return parallel(w.env.clients, warm)
}

func (w *fleetWorkload) computeRefs(ctx context.Context) error {
	w.cache = scoris.NewIndexCache(0)
	for i, text := range w.dbFastas {
		b, err := scoris.ParseBank(w.dbNames[i], text)
		if err != nil {
			return err
		}
		w.dbs = append(w.dbs, b)
	}
	for i, text := range w.qFastas {
		b, err := scoris.ParseBank(w.qNames[i], text)
		if err != nil {
			return err
		}
		w.queries = append(w.queries, b)
	}
	refs := make([][]byte, len(w.dbs)*len(w.queries))
	var jobs []func() error
	for d := range w.dbs {
		for q := range w.queries {
			jobs = append(jobs, func() (err error) {
				refs[d*len(w.queries)+q], err = serialReference(w.cache, w.dbs[d], w.queries[q])
				return err
			})
		}
	}
	if err := parallel(w.env.clients, jobs); err != nil {
		return err
	}
	w.ref = make(map[[2]int][]byte)
	for d := range w.dbs {
		for q := range w.queries {
			w.ref[[2]int{d, q}] = refs[d*len(w.queries)+q]
		}
	}
	return nil
}

func (w *fleetWorkload) refs() [][]byte {
	var out [][]byte
	for d := range w.dbs {
		for q := range w.queries {
			out = append(out, w.ref[[2]int{d, q}])
		}
	}
	return out
}

func (w *fleetWorkload) runOp(ctx context.Context, i int, tr *tracer) (s opSample) {
	op := w.plan[i%len(w.plan)]
	s.kind = op.kind
	root := tr.begin(0, i, layerOp, wlFleetHot)
	defer timeOp(tr, root, &s)()
	db := w.dbNames[op.db]
	names := make([]string, len(op.queries))
	want := make([][]byte, len(op.queries))
	for k, q := range op.queries {
		names[k], want[k] = w.qNames[q], w.ref[[2]int{op.db, q}]
	}
	switch op.kind {
	case kindCompare:
		s.bytes, s.err = w.compare(ctx, tr, root, i, "fleet", kindCompare, w.router, db, names[0], "", want[0])
	case kindStream:
		s.bytes, s.err = w.stream(ctx, tr, root, i, "fleet", w.router, db, names[0], want[0])
	case kindBatch:
		s.bytes, s.err = w.batch(ctx, tr, root, i, "fleet", w.router, db, names, want)
	case kindDirect:
		// The same compare through the router and straight to the
		// worker the router sends it to, in alternating order: the
		// difference within one op is the relay cost, free of how heavy
		// this op's pair happens to be.
		routed := func() {
			if _, err := w.compare(ctx, tr, root, i, "fleet", pairedCompare, w.router, db, names[0], "", want[0]); err != nil && s.err == nil {
				s.err = err
			}
		}
		if round := i / len(w.plan); round%2 == 0 {
			routed()
		} else {
			defer routed()
		}
		var err error
		if s.bytes, err = w.compare(ctx, tr, root, i, "server", kindDirect, w.dbOwner[op.db], db, names[0], "", want[0]); err != nil {
			s.err = err
		}
	}
	return s
}

// counters sums the workers' counters, keeps each worker's compares
// for the share, and adds the router's own robustness ledger.
func (w *fleetWorkload) counters(ctx context.Context) (metricSet, error) {
	w.statsReads++ // the router reads each worker's stats once per read of its own
	r, err := w.plain(ctx, http.MethodGet, w.router+"/v1/stats", nil)
	if err = expect("router stats", r, err, http.StatusOK, nil); err != nil {
		return nil, err
	}
	var st scoris.FleetStats
	if err := json.Unmarshal(r.body, &st); err != nil {
		return nil, fmt.Errorf("router stats: %w", err)
	}
	ms := metricSet{
		"fleet.retries": float64(st.Router.Retries), "fleet.failovers": float64(st.Router.Failovers),
		"fleet.backfills": float64(st.Router.Backfills), "fleet.shed": float64(st.Router.Shed),
		"fleet.torn_relays": float64(st.Router.TornRelays),
	}
	for k, ws := range st.Workers {
		if ws.Stats == nil {
			return nil, fmt.Errorf("router stats: worker %s: %s", ws.Name, ws.Error)
		}
		c, s := ws.Stats.Cache, ws.Stats.Server
		ms["ixcache.lookups"] += float64(c.Lookups)
		ms["ixcache.builds"] += float64(c.Builds)
		ms["ixcache.evictions"] += float64(c.Evictions)
		ms["ixcache.disk_hits"] += float64(c.DiskHits)
		ms["server.requests"] += float64(s.Requests - int64(w.statsReads))
		ms["server.admissions"] += float64(s.Admissions)
		ms["server.rejected"] += float64(s.Rejected)
		ms["server.abandoned"] += float64(s.Abandoned)
		ms["server.timed_out"] += float64(s.TimedOut)
		ms[fmt.Sprintf("worker%d.compares", k)] = float64(s.Compares)
	}
	return ms, nil
}

func (w *fleetWorkload) layers(ctx context.Context, tr *tracer, firstOp int, ms metricSet) error {
	var agg coreAgg
	op := firstOp
	for d := range w.dbs {
		for q := range w.queries {
			if _, err := compareReplay(tr, op, w.cache, w.dbs[d], w.queries[q], nil, w.ref[[2]int{d, q}], &agg); err != nil {
				return err
			}
			op++
		}
	}
	agg.report(ms)
	return cacheHitReplay(tr, op, w.queries[0], ms)
}

func (w *fleetWorkload) shape(ms metricSet) []string {
	var bad []string
	if ms["ixcache.builds"] != 0 {
		bad = append(bad, fmt.Sprintf("ixcache.builds = %v per round, want 0: fleet_hot is no longer hot", ms["ixcache.builds"]))
	}
	if ms["fleet.worker_share_min"] < 0.2 {
		bad = append(bad, fmt.Sprintf("fleet.worker_share_min = %.3f, want >= 0.2: one worker serves nearly everything", ms["fleet.worker_share_min"]))
	}
	return append(bad, mustBeZero(ms, "fleet.retries", "fleet.failovers", "fleet.backfills", "fleet.shed", "fleet.torn_relays",
		"server.rejected", "server.abandoned", "server.timed_out")...)
}
