package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	scoris "repro"
)

// coreAgg accumulates Result.Metrics over replayed compares. Times are
// summed over every compare; counts only over the first pass of the
// replay list, so that they do not depend on how often it was replayed.
type coreAgg struct {
	compares, firstPass    int
	index, s2, s3, s4      time.Duration
	counts                 scoris.Metrics
	positions, maskedSeeds int
}

func (a *coreAgg) add(m scoris.Metrics, firstPass bool) {
	a.compares++
	a.index += m.IndexTime
	a.s2 += m.Step2Time
	a.s3 += m.Step3Time
	a.s4 += m.Step4Time
	if !firstPass {
		return
	}
	a.firstPass++
	c := &a.counts
	c.HitPairs += m.HitPairs
	c.Extensions += m.Extensions
	c.Aborted += m.Aborted
	c.HSPs += m.HSPs
	c.GappedExtensions += m.GappedExtensions
	c.SkippedCovered += m.SkippedCovered
	c.Alignments += m.Alignments
	a.positions += m.IndexedBank1 + m.IndexedBank2
	a.maskedSeeds += m.MaskedSeeds
}

func (a *coreAgg) report(ms metricSet) {
	if a.firstPass == 0 {
		return
	}
	perCompare := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(a.compares) }
	total := float64(a.index + a.s2 + a.s3 + a.s4)
	ms["core.index_ms"] = perCompare(a.index)
	ms["core.step2_ms"] = perCompare(a.s2)
	ms["core.step3_ms"] = perCompare(a.s3)
	ms["core.step4_ms"] = perCompare(a.s4)
	ms["core.step2_share"] = ratio(float64(a.s2), total)
	ms["core.step3_share"] = ratio(float64(a.s3), total)
	// The counts below are the ones exactMetrics names: they must
	// repeat exactly for a seed.
	c := a.counts
	ms["core.hit_pairs"], ms["core.extensions"], ms["core.aborted"] = float64(c.HitPairs), float64(c.Extensions), float64(c.Aborted)
	ms["core.hsps"], ms["core.gapped_extensions"] = float64(c.HSPs), float64(c.GappedExtensions)
	ms["core.skipped_covered"], ms["core.alignments"] = float64(c.SkippedCovered), float64(c.Alignments)
	ms["index.positions"], ms["index.masked_seeds"] = float64(a.positions), float64(a.maskedSeeds)
	// The time sums cover every pass, the counts one pass: scale them.
	passes := float64(a.compares) / float64(a.firstPass)
	ms["core.step2_ns_per_hit_pair"] = ratio(float64(a.s2), float64(c.HitPairs)*passes)
	ms["core.step3_us_per_gapped_ext"] = ratio(float64(a.s3)/1e3, float64(c.GappedExtensions)*passes)
	ms["core.hsp_yield"] = ratio(float64(c.HSPs), float64(c.Extensions))
	ms["core.covered_ratio"] = ratio(float64(c.SkippedCovered), float64(c.HSPs))
}

// readMetric reads one uint64 metric of the Go runtime.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocated is the cumulative number of bytes allocated on the heap.
func heapAllocated() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// replayRoot opens the root span of a layer replay. Replays get op
// numbers of their own, after the traced ops.
func replayRoot(tr *tracer, op int, name string) int {
	return tr.begin(0, op, layerOp, "replay_"+name)
}

// compareReplay is the in-process form of one service compare: the
// calls the server makes for it, on one worker, with the db index held
// by cache as the server holds it. A query given as FASTA text is a
// never-seen bank, parsed and indexed here; a query given as a bank is
// resident in cache. It returns the time from Prepare to the rendered
// m8, in ms.
func compareReplay(tr *tracer, op int, cache *scoris.IndexCache, db, query *scoris.Bank, queryFasta, want []byte, agg *coreAgg) (float64, error) {
	root := replayRoot(tr, op, "compare")
	defer tr.end(root)
	if queryFasta != nil {
		id := tr.begin(root, op, "fasta", "parse")
		var err error
		query, err = scoris.ParseBank("query", queryFasta)
		tr.endWork(id, len(queryFasta))
		if err != nil {
			return 0, err
		}
	}
	opt := scoris.DefaultOptions()
	opt.Workers = 1
	start := time.Now()
	id := tr.begin(root, op, "ixcache", "prepare")
	p1, p2, err := scoris.Prepare(cache, db, query, opt)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(root, op, "core", "compare")
	res, err := scoris.CompareWithIndex(p1, p2, opt)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	traceSteps(tr, id, res.Metrics)
	agg.add(res.Metrics, true)
	id = tr.begin(root, op, "tabular", "write_m8")
	var out writeCounter
	err = scoris.WriteM8(&out, res, db, query)
	tr.endWork(id, len(out.b))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(out.b, want) {
		return 0, fmt.Errorf("replay vs %s: %d bytes that differ from the %d-byte serial reference", db.Name, len(out.b), len(want))
	}
	return float64(time.Since(start)) / 1e6, nil
}

// cacheHitReplay times IndexCache.Get on a resident entry.
func cacheHitReplay(tr *tracer, op int, b *scoris.Bank, ms metricSet) error {
	const gets = 1000
	root := replayRoot(tr, op, "cache_hit")
	defer tr.end(root)
	cache := scoris.NewIndexCache(0)
	o1, _ := scoris.DefaultOptions().IndexOptions()
	id := tr.begin(root, op, "ixcache", "fill")
	p := cache.Get(b, o1)
	tr.end(id)
	if p == nil {
		return fmt.Errorf("cache replay: no index for %s", b.Name)
	}
	id = tr.begin(root, op, "ixcache", "get_hit")
	start := time.Now()
	for k := 0; k < gets; k++ {
		if cache.Get(b, o1) != p {
			return fmt.Errorf("cache replay: a hit returned another index")
		}
	}
	ms["ixcache.get_hit_us"] = float64(time.Since(start)) / 1e3 / gets
	tr.end(id)
	return nil
}

// smallBuildReplay times the direct build of a small bank's index: the
// cost every svc_churn op pays for its never-seen query bank.
func smallBuildReplay(tr *tracer, op int, b *scoris.Bank, ms metricSet) error {
	const builds = 20
	root := replayRoot(tr, op, "small_build")
	defer tr.end(root)
	opt := scoris.DefaultOptions()
	opt.Workers = 1
	var us []float64
	before := heapAllocated()
	for k := 0; k < builds; k++ {
		id := tr.begin(root, op, "index", "build_small")
		start := time.Now()
		_, _, err := scoris.Prepare(nil, b, b, opt)
		us = append(us, float64(time.Since(start))/1e3)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	ms["index.build_small_us"] = median(us)
	ms["index.build_small_alloc_mb"] = float64(heapAllocated()-before) / builds / 1e6
	return nil
}

// storeReplay times the store's save and its two load paths on the db
// index, outside any op: the op replicas only see them folded into
// Prepare.
func storeReplay(tr *tracer, op int, dir string, db *scoris.Bank, ms metricSet) error {
	const reps = 3
	root := replayRoot(tr, op, "store")
	defer tr.end(root)
	defer os.RemoveAll(dir)
	opt := scoris.DefaultOptions()
	o1, _ := opt.IndexOptions()
	id := tr.begin(root, op, "index", "build")
	p, _, err := scoris.Prepare(nil, db, db, opt)
	tr.endWork(id, db.TotalBases())
	if err != nil {
		return err
	}
	var save, mapped, copied, alloc []float64
	for k := 0; k < reps; k++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		store, err := scoris.NewDirIndexStore(dir)
		if err != nil {
			return err
		}
		id = tr.begin(root, op, "ixdisk", "save")
		err = store.Save(p)
		tr.end(id)
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("store replay: save: %w", err)
		}
		save = append(save, tr.ms(id))
		// A fresh store per load: a store remembers what it has mapped.
		for _, mode := range []struct {
			name string
			mmap bool
			into *[]float64
		}{{"load_mapped", true, &mapped}, {"load_copy", false, &copied}} {
			store, err := scoris.NewDirIndexStore(dir)
			if err != nil {
				return err
			}
			store.SetMapped(mode.mmap)
			before := heapAllocated()
			id = tr.begin(root, op, "ixdisk", mode.name)
			got, err := store.Load(db, o1)
			tr.end(id)
			if mode.mmap {
				alloc = append(alloc, float64(heapAllocated()-before)/1e6)
			}
			if cerr := store.Close(); err == nil {
				err = cerr
			}
			if err != nil || got == nil {
				return fmt.Errorf("store replay: %s: index not loaded: %v", mode.name, err)
			}
			*mode.into = append(*mode.into, tr.ms(id))
		}
	}
	ms["ixdisk.save_ms"] = median(save)
	ms["ixdisk.load_mapped_ms"] = median(mapped)
	ms["ixdisk.load_copy_ms"] = median(copied)
	ms["ixdisk.load_alloc_mb"] = median(alloc)
	return nil
}

// mustBeZero lists the named counters that are not 0.
func mustBeZero(ms metricSet, names ...string) []string {
	var bad []string
	for _, n := range names {
		if ms[n] != 0 {
			bad = append(bad, fmt.Sprintf("%s = %v, want 0", n, ms[n]))
		}
	}
	return bad
}
