package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	scoris "repro"
)

// env is what every workload is built from: the seed, the scale, and
// where the files and the program under test live.
type env struct {
	seed      int64
	sz        sizes
	clients   int    // closed-loop clients of a service workload
	workdir   string // all generated files go under here
	scorisBin string // the scoris CLI the exec workloads run
	log       io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// rng returns the random stream of one named input, so that adding an
// input never shifts the bytes of another.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// genePool makes the workload's gene pool and two dealers over it: one
// for the db side, one for the query side.
func (e *env) genePool(genes int) (db, query *dealer) {
	pool := newPool(e.rng(streamPool), genes, e.sz.poolGeneLen)
	return newDealer(e.rng(streamDeal), pool), newDealer(e.rng(streamDeal+100), pool)
}

// Random streams, one per generated input.
const (
	streamPool int64 = iota + 1
	streamDeal
	streamDB
	streamQuery
	streamGrow
	streamOps
	streamBank // + bank number, last
)

// op kinds, which are also the span names of their main request.
const (
	kindExec    = "exec"
	kindCompare = "compare"
	kindStream  = "stream"
	kindBatch   = "batch"
	kindJob     = "job"
	kindBlat    = "blat"
	kindDirect  = "direct"
)

// opSample is the outcome of one op as its caller saw it.
type opSample struct {
	index int // position in the workload's sequence of ops
	kind  string
	done  time.Time
	ms    float64 // wall time
	rssMB float64 // exec workloads: the child's peak RSS (max over a cycle)
	bytes int     // result bytes received
	// storeBytesPerBase is, on store_cycle, the size of the .orix files
	// the cycle left in its index directory over the bases of the db.
	storeBytesPerBase float64
	err               error // transport failure, refusal or wrong bytes
}

// inLatency reports whether the sample belongs to the op latency
// percentiles: on the mixed service workloads only the single-compare
// oris ops do, so that the percentiles describe one kind of request.
func (s opSample) inLatency() bool {
	return s.kind == kindExec || s.kind == kindCompare || s.kind == kindStream
}

// workload is one named set of inputs and the ops run on it.
type workload interface {
	// setUp makes the inputs from the seed and brings the system to the
	// state the ops expect, warm-up included. It is what setup_s times.
	setUp(ctx context.Context) error
	// close releases everything setUp made.
	close()
	// computeRefs computes the serial reference output of every
	// distinct (db, query, options) the ops use. Not part of setup_s:
	// it is the benchmark checking the program, not the program.
	computeRefs(ctx context.Context) error
	// refs returns the references in a fixed order, for the digest.
	refs() [][]byte
	// roundLen is the length of the fixed, seeded op list; windows run
	// whole rounds of it.
	roundLen() int
	// concurrency is the number of closed-loop clients.
	concurrency() int
	// runOp runs op i. With a tracer, service workloads record a span
	// per request and exec workloads run the op's in-process replica.
	runOp(ctx context.Context, i int, tr *tracer) opSample
	// counters snapshots the program's own counters (cache, server,
	// router), for deltas over a window.
	counters(ctx context.Context) (metricSet, error)
	// layers runs the in-process replays of the traced pass and
	// reports the per-layer metrics that come from them.
	layers(ctx context.Context, tr *tracer, firstOp int, ms metricSet) error
	// shape checks that the traced pass still stresses what the
	// workload claims to stress.
	shape(ms metricSet) []string
}

func newWorkload(name string, e *env, dir string) (workload, error) {
	switch name {
	case wlEstCold:
		return &execWorkload{env: e, dir: dir, store: false}, nil
	case wlStoreCycle:
		return &execWorkload{env: e, dir: dir, store: true}, nil
	case wlSvcAllpairs:
		return &allpairsWorkload{svc: svc{env: e, dir: dir}}, nil
	case wlSvcChurn:
		return &churnWorkload{svc: svc{env: e, dir: dir}}, nil
	case wlFleetHot:
		return &fleetWorkload{svc: svc{env: e, dir: dir}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// refDigest is the SHA-256 of the references, length-prefixed so that
// bytes cannot move between neighbours unnoticed.
func refDigest(refs [][]byte) string {
	h := sha256.New()
	for _, r := range refs {
		fmt.Fprintf(h, "%d\n", len(r))
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// serialReference is the correctness yardstick: the pipeline on one
// worker, rendered as m8. With a nil cache it is the one-shot
// scoris.Compare; with a cache, the same pipeline with the db index
// reused across the queries of one db (Compare is Prepare with no
// cache followed by the same engine).
func serialReference(cache *scoris.IndexCache, db, query *scoris.Bank) ([]byte, error) {
	opt := scoris.DefaultOptions()
	opt.Workers = 1
	var res *scoris.Result
	var err error
	if cache == nil {
		res, err = scoris.Compare(db, query, opt)
	} else {
		var p1, p2 *scoris.Prepared
		if p1, p2, err = scoris.Prepare(cache, db, query, opt); err == nil {
			res, err = scoris.CompareWithIndex(p1, p2, opt)
		}
	}
	if err != nil {
		return nil, err
	}
	var buf writeCounter
	if err := scoris.WriteM8(&buf, res, db, query); err != nil {
		return nil, err
	}
	return buf.b, nil
}

type writeCounter struct{ b []byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// window is what one measured stretch of ops produced.
type window struct {
	samples []opSample // in completion order
	start   time.Time
	firstOp int
	round   int // ops per round
	rt      runtimeDelta
}

// roundSeconds returns how long each round took: from the completion
// of the previous round's last op (the window's start, for the first)
// to the completion of its own last op. Clients run ahead into the
// next round while a round finishes, so the durations overlap in work
// but not in time: they add up to the window.
func (w window) roundSeconds() []float64 {
	ends := make([]time.Time, len(w.samples)/w.round)
	for _, s := range w.samples {
		if r := (s.index - w.firstOp) / w.round; s.done.After(ends[r]) {
			ends[r] = s.done
		}
	}
	out := make([]float64, len(ends))
	prev := w.start
	for r, end := range ends {
		out[r] = end.Sub(prev).Seconds()
		prev = end
	}
	return out
}

func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the wall times of the samples that belong to the
// latency percentiles.
func (w window) latencies() []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.inLatency() && s.err == nil {
			out = append(out, s.ms)
		}
	}
	return out
}

// runtimeDelta is what the Go runtime did over a window. For the
// service workloads the server runs in this process, so it covers
// client and server together.
type runtimeDelta struct {
	allocBytes, mallocs, gcCycles, gcPauseNS uint64
	heapPeak                                 uint64
}

// runWindow runs whole rounds of the op list, starting at op firstOp,
// until d has passed, and returns the samples. Clients are closed
// loop: each takes the next op index when its previous op completes.
// Once d has passed no new round starts, and the round in progress is
// finished, so that every window holds the same mix of ops.
func runWindow(ctx context.Context, w workload, firstOp int, d time.Duration, tr *tracer) window {
	var (
		mu      sync.Mutex
		next    = firstOp
		limit   = -1
		samples []opSample
		wg      sync.WaitGroup
		round   = w.roundLen()
	)
	runtime.GC()
	before := readRuntime()
	peak := startHeapSampler()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < w.concurrency(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if limit < 0 && (time.Now().After(deadline) || ctx.Err() != nil) {
					limit = firstOp + (next-firstOp+round-1)/round*round
				}
				if limit >= 0 && next >= limit {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				s := w.runOp(ctx, i, tr)
				s.index, s.done = i, time.Now()
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := readRuntime()
	return window{samples: samples, start: start, firstOp: firstOp, round: round, rt: runtimeDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPauseNS:  after.PauseTotalNs - before.PauseTotalNs,
		heapPeak:   peak(),
	}}
}

func readRuntime() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// startHeapSampler polls the live heap every 20 ms until the returned
// function is called, which stops it and reports the largest reading.
func startHeapSampler() (stop func() uint64) {
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		var peak uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, readMetric("/memory/classes/heap/objects:bytes"))
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

// timeOp starts an op's clock; the returned function stops it, records
// the wall time in s and closes the op's root span.
func timeOp(tr *tracer, root int, s *opSample) func() {
	start := time.Now()
	return func() {
		s.ms = float64(time.Since(start)) / 1e6
		tr.end(root)
	}
}
