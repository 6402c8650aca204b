package ixdisk

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/simulate"
)

// benchPrepared builds a ~BenchScale-shaped index once for the save/
// load benchmarks: 512 kb of bank at W=10, the half of the paper
// configuration that fits a CI smoke run.
func benchPrepared(b *testing.B) (*index.Index, index.Options, string) {
	b.Helper()
	opts := index.Options{W: 10}
	bk := genBank(b, "bench", 512<<10)
	p := index.Build(bk, opts)
	dir := b.TempDir()
	path := filepath.Join(dir, "bench"+FileExt)
	if err := Save(path, p); err != nil {
		b.Fatal(err)
	}
	return p, opts, path
}

// BenchmarkIxdiskSave measures the serialization write path (temp file
// + checksum + rename) against the build it replaces on later runs.
func BenchmarkIxdiskSave(b *testing.B) {
	p, _, path := benchPrepared(b)
	fi, _ := os.Stat(path)
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Save(path, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIxdiskLoad measures the load of a read image: the file read
// whole into one buffer, every block validated and aliased in place.
func BenchmarkIxdiskLoad(b *testing.B) {
	p, opts, path := benchPrepared(b)
	fi, _ := os.Stat(path)
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := load(path, p.Bank, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// est5500 is store_cycle's db shape: 5,500 simulated EST reads of about
// 450 bp (2.5 Mbp), indexed at W = 11 under dust.
func est5500() (*bank.Bank, index.Options) {
	return simulate.EST(simulate.ESTSpec{
		Name: "est5500", Seed: 5500, NumSeqs: 5500, MeanLen: 450, GeneFraction: 0.5,
		Mut: simulate.Mutation{Sub: 0.035, Indel: 0.004}, PolyATailFraction: 0.15,
	}, simulate.NewPool(1001, 400, 900)), index.Options{W: 11, Dust: true}
}

// benchEST5500 saves est5500 as a fresh save does: one block.
func benchEST5500(b *testing.B) (*index.Index, index.Options, string) {
	b.Helper()
	bk, opts := est5500()
	p := index.Build(bk, opts)
	path := filepath.Join(b.TempDir(), "est5500"+FileExt)
	if err := Save(path, p); err != nil {
		b.Fatal(err)
	}
	return p, opts, path
}

// benchEST5500Appended saves est5500 as store_cycle's append leaves it:
// a head over the first 5,225 reads and one block over the last 275.
func benchEST5500Appended(b *testing.B) (*index.Index, index.Options, string) {
	b.Helper()
	bk, opts := est5500()
	path := filepath.Join(b.TempDir(), "est5500-appended"+FileExt)
	saveCut(b, path, bk, opts, []int{5225})
	return index.Build(bk, opts), opts, path
}

// BenchmarkIxdiskLoadMapped measures the zero-copy mmap reader — the
// cold-process warm-start path whose trajectory CI tracks — on the
// 512 kb bank and at store_cycle's shape (est5500), where it is meant to
// cost at most a quarter of BenchmarkIxdiskBuild/est5500, and at that
// shape as an append leaves it (est5500-appended): two blocks, each
// mapped as it stands, so its B/op is est5500's plus the tail part's
// lookup and proof bits.
func BenchmarkIxdiskLoadMapped(b *testing.B) {
	for _, shape := range []struct {
		name     string
		prepared func(*testing.B) (*index.Index, index.Options, string)
	}{{"w10", benchPrepared}, {"est5500", benchEST5500}, {"est5500-appended", benchEST5500Appended}} {
		b.Run(shape.name, func(b *testing.B) {
			p, opts, path := shape.prepared(b)
			fi, _ := os.Stat(path)
			b.SetBytes(fi.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := loadMapped(path, p.Bank, opts)
				if err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}

// appendFixture builds the O(suffix) append scenario at realistic
// scale: a ≥4 Mb database bank of 64 sequences stored in dir, and the
// same bank grown by one more sequence. Returns the stored prefix
// file's path and bytes (for resetting between benchmark iterations).
func appendFixture(tb testing.TB) (dir string, short, grown *bank.Bank, opts index.Options, oldPath string, prefixBytes []byte) {
	tb.Helper()
	recs := genRecs(tb, 64<<10, 65) // 65 sequences of 64 kb: > 4 Mb
	short = bank.New("db", recs[:64])
	grown = bank.New("db", recs)
	opts = index.Options{W: 10}
	dir = tb.TempDir()
	store := openStore(tb, dir)
	if err := store.Save(index.Build(short, opts)); err != nil {
		tb.Fatal(err)
	}
	oldPath = store.Path(short, opts)
	prefixBytes, err := os.ReadFile(oldPath)
	if err != nil {
		tb.Fatal(err)
	}
	return dir, short, grown, opts, oldPath, prefixBytes
}

func openStore(tb testing.TB, dir string) *DirStore {
	tb.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	return store
}

// BenchmarkIndexAppend_v3 measures growing a stored ≥4 Mb index by one
// sequence the way a store does it: an exact miss on the grown bank
// finds the stored prefix, decodes its blocks, builds one block over
// the suffix, writes it plus a fresh footer over the old footer, and
// renames. The append-bytes metric is what lands on disk per append;
// compare it to fullsave-bytes, what a rewrite of the file would cost.
func BenchmarkIndexAppend_v3(b *testing.B) {
	dir, _, grown, opts, oldPath, prefixBytes := appendFixture(b)
	oldInfo, err := Probe(oldPath)
	if err != nil {
		b.Fatal(err)
	}
	var newPath string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh store per iteration: the previous one memoized the
		// grown bank and would answer from memory.
		store := openStore(b, dir)
		newPath = store.Path(grown, opts)
		os.Remove(newPath)
		if err := os.WriteFile(oldPath, prefixBytes, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if p, err := store.Load(grown, opts); err != nil || p == nil {
			b.Fatalf("append load: %v, %v", p, err)
		}
		if store.BlockAppends() != 1 {
			b.Fatal("the load did not append in place")
		}
	}
	b.StopTimer()
	fi, err := os.Stat(newPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()-oldInfo.PayloadEnd), "append-bytes")
	b.ReportMetric(float64(len(prefixBytes)), "fullsave-bytes")
}

// TestAppendBytesRatio pins the benchmark's claim as an invariant: at
// ≥4 Mb, appending one sequence writes at least 10× fewer bytes than
// rewriting the file, grows the directory by exactly one block, and
// leaves every stored byte untouched.
func TestAppendBytesRatio(t *testing.T) {
	dir, _, grown, opts, oldPath, prefixBytes := appendFixture(t)
	if grown.TotalBases() < 4<<20 {
		t.Fatalf("fixture bank is %d bases, the scenario requires at least 4 Mb", grown.TotalBases())
	}
	oldInfo, err := Probe(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	store := openStore(t, dir)
	p, err := store.Load(grown, opts)
	if err != nil || p == nil {
		t.Fatalf("append load: %v, %v", p, err)
	}
	if store.Extends() != 1 || store.BlockAppends() != 1 {
		t.Fatalf("Extends/BlockAppends = %d/%d, want 1/1 — the append fell back to a full save",
			store.Extends(), store.BlockAppends())
	}
	newPath := store.Path(grown, opts)
	newBytes, err := os.ReadFile(newPath)
	if err != nil {
		t.Fatal(err)
	}
	newInfo, err := Probe(newPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(newInfo.Blocks) != len(oldInfo.Blocks)+1 {
		t.Errorf("append grew the directory from %d to %d blocks, want exactly one more",
			len(oldInfo.Blocks), len(newInfo.Blocks))
	}
	if !bytes.Equal(newBytes[:oldInfo.PayloadEnd], prefixBytes[:oldInfo.PayloadEnd]) {
		t.Error("stored prefix bytes changed across the append")
	}
	appended := int64(len(newBytes)) - oldInfo.PayloadEnd
	full := int64(len(prefixBytes))
	if appended*10 > full {
		t.Errorf("append wrote %d bytes where a full save writes %d — less than the required 10x win",
			appended, full)
	}
	t.Logf("append wrote %d bytes, a full save %d (%.1fx)", appended, full, float64(full)/float64(appended))
	loaded, err := load(newPath, grown, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, p, loaded)
	assertIndexEqual(t, index.Build(grown, opts), loaded)
}

// BenchmarkIxdiskBuild is the comparison column: what a cold process
// pays when no store is attached, on the load benchmark's two shapes
// (est5500 on two workers, as store_cycle's host runs it). Its B/op is
// the build's scratch and the index it leaves.
func BenchmarkIxdiskBuild(b *testing.B) {
	for _, shape := range []struct {
		name     string
		prepared func(*testing.B) (*index.Index, index.Options, string)
		workers  int
	}{{"w10", benchPrepared, 0}, {"est5500", benchEST5500, 2}} {
		b.Run(shape.name, func(b *testing.B) {
			p, opts, _ := shape.prepared(b)
			opts.Workers = shape.workers
			b.SetBytes(int64(len(p.Bank.Data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				index.Build(p.Bank, opts)
			}
		})
	}
}
