package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	scoris "repro"
)

// execWorkload runs the scoris CLI as a child process, one at a time:
// est_cold is one invocation on two EST banks; store_cycle (store set)
// is four invocations over a fresh -index-dir.
type execWorkload struct {
	env   *env
	dir   string
	store bool

	dbPath, grownPath, queryPath string
	dbFasta, grownFasta, qFasta  []byte
	grownBases                   int

	db, grown, query *scoris.Bank // parsed once, for references and replays
	refA, refB       []byte       // query vs db, query vs grown db

	replica replicaStats
}

// storePhase is one invocation of a store_cycle op.
type storePhase struct {
	name  string
	grown bool // against the grown db
}

var storePhases = []storePhase{{"cold", false}, {"warm", false}, {"append", true}, {"rewarm", true}}

// invocation is one run of the CLI within an op: the db it reads and
// the bytes it must write. est_cold has one; store_cycle one per phase.
type invocation struct {
	phase  string
	dbPath string
	want   []byte
}

func (w *execWorkload) invocations() []invocation {
	if !w.store {
		return []invocation{{"", w.dbPath, w.refA}}
	}
	var out []invocation
	for _, ph := range storePhases {
		inv := invocation{ph.name, w.dbPath, w.refA}
		if ph.grown {
			inv.dbPath, inv.want = w.grownPath, w.refB
		}
		out = append(out, inv)
	}
	return out
}

func (w *execWorkload) name() string {
	if w.store {
		return wlStoreCycle
	}
	return wlEstCold
}

func (w *execWorkload) roundLen() int    { return 1 }
func (w *execWorkload) concurrency() int { return 1 }

func (w *execWorkload) setUp(ctx context.Context) error {
	sz := w.env.sz
	dbGenes, queryGenes := w.env.genePool(sz.poolGenes)
	var db, grow, query []record
	if w.store {
		db = estReads(w.env.rng(streamDB), estSpec{"db", sz.storeDBSeqs, sz.estLen, serviceGeneFrac}, dbGenes)
		extra := max(1, int(float64(sz.storeDBSeqs)*sz.storeGrowShare))
		grow = estReads(w.env.rng(streamGrow), estSpec{"dbnew", extra, sz.estLen, serviceGeneFrac}, dbGenes)
		query = estReads(w.env.rng(streamQuery), estSpec{"q", sz.storeQuerySeqs, sz.estLen, serviceGeneFrac}, queryGenes)
	} else {
		db = estReads(w.env.rng(streamDB), estSpec{"db", sz.estDBSeqs, sz.estLen, sz.estGeneFrac}, dbGenes)
		query = estReads(w.env.rng(streamQuery), estSpec{"q", sz.estQuerySeqs, sz.estLen, sz.estGeneFrac}, queryGenes)
	}
	w.dbFasta, w.qFasta = fastaText(db), fastaText(query)
	// The grown db keeps the basename db.fasta in another directory:
	// the store recognises a grown bank by name prefix and content.
	w.dbPath = filepath.Join(w.dir, "a", "db.fasta")
	w.queryPath = filepath.Join(w.dir, "query.fasta")
	type file struct {
		path string
		data []byte
	}
	files := []file{{w.dbPath, w.dbFasta}, {w.queryPath, w.qFasta}}
	if w.store {
		grown := append(append([]record(nil), db...), grow...)
		w.grownFasta, w.grownBases = fastaText(grown), totalBases(grown)
		w.grownPath = filepath.Join(w.dir, "b", "db.fasta")
		files = append(files, file{w.grownPath, w.grownFasta})
	}
	for _, f := range files {
		if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return err
		}
	}
	// One warm-up op: the binary and the banks are in the page cache
	// before the first measured op, as they are for every later one.
	if s := w.execOp(ctx, -1, false); s.err != nil {
		return fmt.Errorf("warm-up op: %w", s.err)
	}
	return nil
}

func (w *execWorkload) close() { os.RemoveAll(w.dir) }

func (w *execWorkload) computeRefs(ctx context.Context) error {
	var err error
	if w.db, err = scoris.ParseBank("db.fasta", w.dbFasta); err != nil {
		return err
	}
	if w.query, err = scoris.ParseBank("query.fasta", w.qFasta); err != nil {
		return err
	}
	if w.refA, err = serialReference(nil, w.db, w.query); err != nil {
		return err
	}
	if w.store {
		if w.grown, err = scoris.ParseBank("db.fasta", w.grownFasta); err != nil {
			return err
		}
		if w.refB, err = serialReference(nil, w.grown, w.query); err != nil {
			return err
		}
	}
	return nil
}

func (w *execWorkload) refs() [][]byte {
	if w.store {
		return [][]byte{w.refA, w.refB}
	}
	return [][]byte{w.refA}
}

func (w *execWorkload) runOp(ctx context.Context, i int, tr *tracer) opSample {
	if tr != nil {
		return w.replicaOp(i, tr)
	}
	return w.execOp(ctx, i, true)
}

// execOp runs the op's child processes. verify is false only for the
// warm-up op, which runs before the references exist.
func (w *execWorkload) execOp(ctx context.Context, i int, verify bool) opSample {
	s := opSample{kind: kindExec}
	out := filepath.Join(w.dir, fmt.Sprintf("out-%d.m8", i))
	defer os.Remove(out)
	run := func(want []byte, args ...string) error {
		cmd := exec.CommandContext(ctx, w.env.scorisBin, append(args, "-o", out)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		start := time.Now()
		err := cmd.Run()
		s.ms += float64(time.Since(start)) / 1e6
		if err != nil {
			return fmt.Errorf("scoris %v: %w: %s", args, err, bytes.TrimSpace(stderr.Bytes()))
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = max(s.rssMB, float64(ru.Maxrss)/1024) // Linux reports KiB
		}
		got, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		s.bytes += len(got)
		if verify && !bytes.Equal(got, want) {
			return fmt.Errorf("scoris %v: wrote %d bytes that differ from the %d-byte serial reference", args, len(got), len(want))
		}
		return nil
	}
	ixDir := filepath.Join(w.dir, fmt.Sprintf("ix-%d", i))
	defer os.RemoveAll(ixDir)
	for _, inv := range w.invocations() {
		args := []string{"-d", inv.dbPath, "-i", w.queryPath}
		if w.store {
			args = append(args, "-index-dir", ixDir, "-index-save", "db")
		}
		if s.err = run(inv.want, args...); s.err != nil {
			return s
		}
	}
	if w.store {
		n, err := orixBytes(ixDir)
		s.storeBytesPerBase, s.err = float64(n)/float64(w.grownBases), err
	}
	return s
}

// orixBytes sums the sizes of the .orix files in dir.
func orixBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.orix"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// replicaStats is what the in-process replicas of the traced pass
// counted, beyond their spans. Counters are those of the first op: the
// op is the same every time.
type replicaStats struct {
	ops                       int
	core                      coreAgg
	cache                     metricSet            // ixcache counters summed over the op
	phase                     map[string]metricSet // store_cycle: cache and store counters per phase
	fileBytes, grownFileBytes int64                // store_cycle: .orix bytes after cold, after append
}

// replicaOp is the traced form of an exec op: the same calls
// cmd/scoris makes, in this process, with a span around each call into
// a layer. (Spans inside the program are a later change.)
func (w *execWorkload) replicaOp(i int, tr *tracer) (s opSample) {
	s.kind = kindExec
	w.replica.ops++
	first := w.replica.ops == 1
	if first {
		w.replica.cache = metricSet{}
		w.replica.phase = map[string]metricSet{}
	}
	root := tr.begin(0, i, layerOp, w.name())
	defer timeOp(tr, root, &s)()
	out := filepath.Join(w.dir, fmt.Sprintf("replica-%d.m8", i))
	defer os.Remove(out)
	ixDir, prepLayer := "", "index" // est_cold: Prepare is all index builds
	if w.store {
		ixDir, prepLayer = filepath.Join(w.dir, fmt.Sprintf("replica-ix-%d", i)), "ixdisk"
		defer os.RemoveAll(ixDir)
	}
	for _, inv := range w.invocations() {
		prepName := strings.TrimPrefix(inv.phase+"_prepare", "_")
		if s.err = w.replicaInvocation(tr, root, i, &s, prepLayer, prepName, inv.dbPath, ixDir, out, inv.want); s.err != nil {
			return s
		}
		if first && w.store {
			n, err := orixBytes(ixDir)
			if err != nil {
				s.err = err
				return s
			}
			switch inv.phase {
			case "cold":
				w.replica.fileBytes = n
			case "append":
				w.replica.grownFileBytes = n
			}
		}
	}
	return s
}

// replicaInvocation mirrors one run of cmd/scoris main. The Prepare
// span is named by the caller: on store_cycle it is whatever the store
// tier makes of the phase.
func (w *execWorkload) replicaInvocation(tr *tracer, root, op int, s *opSample, prepLayer, prepName, dbPath, ixDir, out string, want []byte) error {
	first := w.replica.ops == 1
	id := tr.begin(root, op, "fasta", "load")
	bank1, err := scoris.LoadBank(filepath.Base(dbPath), dbPath)
	tr.endWork(id, fileSize(dbPath))
	if err != nil {
		return err
	}
	opt := scoris.DefaultOptions()
	cache := scoris.NewIndexCache(2)
	var store *scoris.DirIndexStore
	if ixDir != "" {
		id = tr.begin(root, op, "ixdisk", "open")
		store, err = scoris.NewDirIndexStore(ixDir)
		if err == nil {
			store.SetSavePolicy(scoris.IndexSavePolicy{DBOnly: true})
			store.MarkDB(bank1)
			cache.SetStore(store)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		// The CLI leaves its mappings to process exit; the replica
		// shares a process with the next op and must let them go.
		defer store.Close()
	}
	id = tr.begin(root, op, "fasta", "load")
	bank2, err := scoris.LoadBank(filepath.Base(w.queryPath), w.queryPath)
	tr.endWork(id, fileSize(w.queryPath))
	if err != nil {
		return err
	}

	id = tr.begin(root, op, prepLayer, prepName)
	p1, p2, err := scoris.Prepare(cache, bank1, bank2, opt)
	tr.endWork(id, bank1.TotalBases()+bank2.TotalBases())
	if err != nil {
		return err
	}
	id = tr.begin(root, op, "core", "compare")
	res, err := scoris.CompareWithIndex(p1, p2, opt)
	tr.end(id)
	if err != nil {
		return err
	}
	traceSteps(tr, id, res.Metrics)
	w.replica.core.add(res.Metrics, first)

	id = tr.begin(root, op, "tabular", "write_m8")
	err = writeM8File(out, res, bank1, bank2)
	tr.endWork(id, fileSize(out))
	if err != nil {
		return err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	s.bytes += len(got)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("replica of scoris -d %s: %d bytes that differ from the %d-byte serial reference", dbPath, len(got), len(want))
	}
	if first {
		cs := metricSet{
			"ixcache.lookups": float64(cache.Lookups()), "ixcache.builds": float64(cache.Builds()),
			"ixcache.evictions": float64(cache.Evictions()), "ixcache.disk_hits": float64(cache.DiskHits()),
		}
		for k, v := range cs {
			w.replica.cache[k] += v
		}
		if store != nil {
			cs["ixdisk.block_loads"] = float64(store.BlockLoads())
			cs["ixdisk.block_appends"] = float64(store.BlockAppends())
			cs["ixdisk.extends"] = float64(store.Extends())
			cs["ixdisk.store_errors"] = float64(cache.DiskErrors() + store.WriteBackErrors())
			w.replica.phase[prepName] = cs
		}
	}
	return nil
}

func fileSize(path string) int {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return int(fi.Size())
}

// writeM8File writes a result the way the CLI does: buffered, with the
// flush and the close both checked.
func writeM8File(path string, res *scoris.Result, bank1, bank2 *scoris.Bank) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	if err := scoris.WriteM8(bw, res, bank1, bank2); err != nil {
		return err
	}
	return bw.Flush()
}

// traceSteps lays the engine's own step timings inside a compare span
// as child spans, in pipeline order.
func traceSteps(tr *tracer, compare int, m scoris.Metrics) {
	var at time.Duration
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"index", m.IndexTime}, {"step2", m.Step2Time}, {"step3", m.Step3Time}, {"step4", m.Step4Time}} {
		if st.d > 0 {
			tr.child(compare, "core", st.name, at, st.d)
			at += st.d
		}
	}
}

func (w *execWorkload) counters(context.Context) (metricSet, error) { return metricSet{}, nil }

// layers reports what the op replicas counted and adds the direct
// replays they cannot isolate: a cache hit and, on store_cycle, the
// store's save and its two load paths on the db index.
func (w *execWorkload) layers(ctx context.Context, tr *tracer, firstOp int, ms metricSet) error {
	r := &w.replica
	r.core.report(ms)
	for k, v := range r.cache {
		ms[k] = v
	}
	if err := cacheHitReplay(tr, firstOp, w.query, ms); err != nil {
		return err
	}
	if !w.store {
		return nil
	}
	for _, ph := range storePhases {
		for _, k := range []string{"ixdisk.block_loads", "ixdisk.block_appends", "ixdisk.extends", "ixdisk.store_errors"} {
			ms[k] += r.phase[ph.name+"_prepare"][k]
		}
	}
	ms["ixdisk.file_bytes"] = float64(r.fileBytes)
	ms["ixdisk.append_bytes"] = float64(r.grownFileBytes - r.fileBytes)
	ms["ixdisk.append_write_ratio"] = ratio(float64(r.grownFileBytes-r.fileBytes), float64(r.grownFileBytes))
	return storeReplay(tr, firstOp+1, filepath.Join(w.dir, "replay-ix"), w.db, ms)
}

func (w *execWorkload) shape(ms metricSet) []string {
	var bad []string
	if !w.store {
		if ms["core.step3_share"] < 0.5 {
			bad = append(bad, fmt.Sprintf("core.step3_share = %.3f, want >= 0.5: step 3 no longer dominates est_cold", ms["core.step3_share"]))
		}
		if ms["core.step2_share"] > 0.2 {
			bad = append(bad, fmt.Sprintf("core.step2_share = %.3f, want <= 0.2", ms["core.step2_share"]))
		}
		return bad
	}
	// With -index-save db only the db index is stored, so every phase
	// builds the 64-read query index; what must hold is what happens
	// to the db index: built and saved, loaded, extended by one block
	// appended in place, loaded again.
	type counts struct {
		builds, diskHits, extends, appends float64
	}
	for _, ph := range []struct {
		name string
		want counts
	}{
		{"cold_prepare", counts{2, 0, 0, 0}},
		{"warm_prepare", counts{1, 1, 0, 0}},
		{"append_prepare", counts{1, 1, 1, 1}},
		{"rewarm_prepare", counts{1, 1, 0, 0}},
	} {
		c := w.replica.phase[ph.name]
		got := counts{c["ixcache.builds"], c["ixcache.disk_hits"], c["ixdisk.extends"], c["ixdisk.block_appends"]}
		if got != ph.want {
			bad = append(bad, fmt.Sprintf("store_cycle %s: builds/disk hits/extends/block appends = %v, want %v", ph.name, got, ph.want))
		}
	}
	if ms["ixdisk.store_errors"] != 0 {
		bad = append(bad, fmt.Sprintf("ixdisk.store_errors = %v, want 0", ms["ixdisk.store_errors"]))
	}
	return bad
}
