package scoris

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/tabular"
)

// runTool builds nothing: `go run` compiles and executes the command,
// exercising the real CLI surface end to end.
func runTool(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// runToolExpectError is runTool's failure twin: the command must exit
// non-zero, and its stderr is returned for message assertions.
func runToolExpectError(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatalf("go run %v: expected a non-zero exit, got success\nstderr:\n%s", args, stderr.String())
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go run %v: did not run: %v", args, err)
	}
	return stderr.String()
}

func TestCLIPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()

	// 1. Generate two small banks.
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")
	for _, p := range []string{est1, est2} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("bankgen did not write %s: %v", p, err)
		}
	}

	// 2. Run both engines.
	scorisOut := filepath.Join(dir, "scoris.m8")
	blastOut := filepath.Join(dir, "blastn.m8")
	_, serr := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", scorisOut, "-v")
	if !strings.Contains(serr, "step2") {
		t.Errorf("scoris -v did not print step metrics: %q", serr)
	}
	runTool(t, "./cmd/goblastn", "-d", est1, "-i", est2, "-o", blastOut)

	sRecs, err := tabular.ReadFile(scorisOut)
	if err != nil {
		t.Fatal(err)
	}
	bRecs, err := tabular.ReadFile(blastOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(sRecs) == 0 || len(bRecs) == 0 {
		t.Fatalf("engines found nothing: scoris %d, blastn %d", len(sRecs), len(bRecs))
	}

	// 3. Diff the outputs with the paper's method.
	diff, _ := runTool(t, "./cmd/m8diff", scorisOut, blastOut)
	if !strings.Contains(diff, "missing from A") || !strings.Contains(diff, "missing from B") {
		t.Errorf("m8diff output malformed:\n%s", diff)
	}
}

// TestCLIIndexStoreWarmStart is the in-repo twin of the CI persistence
// job: two scoris invocations sharing an -index-dir, where the second
// must perform zero index builds (both indexes come off disk) and
// still produce byte-identical output.
func TestCLIIndexStoreWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")
	ixDir := filepath.Join(dir, "ixstore")
	coldOut := filepath.Join(dir, "cold.m8")
	warmOut := filepath.Join(dir, "warm.m8")

	_, cold := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", coldOut, "-index-dir", ixDir)
	if !strings.Contains(cold, "index store: 2 builds") || !strings.Contains(cold, "0 disk hits") {
		t.Errorf("cold run should build db+query indexes and hit nothing:\n%s", cold)
	}

	_, warm := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", warmOut, "-index-dir", ixDir)
	if !strings.Contains(warm, "index store: 0 builds") || !strings.Contains(warm, "2 disk hits") ||
		!strings.Contains(warm, "(0 suffix extensions)") {
		t.Errorf("warm run must perform zero builds with 2 exact disk hits:\n%s", warm)
	}

	coldBytes, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}
	warmBytes, err := os.ReadFile(warmOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(coldBytes) == 0 || !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("warm output differs from cold (cold %d bytes, warm %d bytes)",
			len(coldBytes), len(warmBytes))
	}
}

// TestCLIIndexStoreAppendExtend is the in-repo twin of the CI
// append-extension step: after a warm store exists, appending one
// sequence to the db bank must be satisfied by a suffix extension
// (zero builds), and the output must be byte-identical to a cold run
// against the appended bank.
func TestCLIIndexStoreAppendExtend(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")
	ixDir := filepath.Join(dir, "ixstore")

	// Cold run populates the store.
	runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", filepath.Join(dir, "pre.m8"), "-index-dir", ixDir)

	// Append one sequence to the db bank.
	f, err := os.OpenFile(est1, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(">appended synthetic read\nACGTTGCAACGTTGCAACGTTGCATTACGGATCCAT\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	extOut := filepath.Join(dir, "ext.m8")
	_, ext := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", extOut, "-index-dir", ixDir)
	if !strings.Contains(ext, "index store: 0 builds") ||
		!strings.Contains(ext, "2 disk hits (1 suffix extensions)") {
		t.Errorf("appended db bank should extend, not rebuild:\n%s", ext)
	}

	// Byte-identical to a cold full build of the appended bank.
	coldOut := filepath.Join(dir, "cold-appended.m8")
	runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", coldOut)
	extBytes, err := os.ReadFile(extOut)
	if err != nil {
		t.Fatal(err)
	}
	coldBytes, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(extBytes) == 0 || !bytes.Equal(extBytes, coldBytes) {
		t.Errorf("extended-index output differs from cold build (%d vs %d bytes)",
			len(extBytes), len(coldBytes))
	}

	// One more warm run exact-hits the extended index saved above.
	_, warm := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", filepath.Join(dir, "warm.m8"), "-index-dir", ixDir)
	if !strings.Contains(warm, "index store: 0 builds") || !strings.Contains(warm, "(0 suffix extensions)") {
		t.Errorf("extension was not written back under the exact key:\n%s", warm)
	}
}

// TestCLIIndexStoreGC: a size cap shrinks the store and reports it.
func TestCLIIndexStoreGC(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")
	ixDir := filepath.Join(dir, "ixstore")

	runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", filepath.Join(dir, "a.m8"), "-index-dir", ixDir)
	entries, err := os.ReadDir(ixDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("store not populated: %v (%d entries)", err, len(entries))
	}

	// The smallest expressible size cap is 1 MB — far above these tiny
	// indexes — so drive the shrink with the age cap instead: age
	// everything out and assert the store empties.
	_, gc := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", filepath.Join(dir, "b.m8"),
		"-index-dir", ixDir, "-index-max-age", "1ns")
	if !strings.Contains(gc, "index store gc:") {
		t.Errorf("no gc summary line:\n%s", gc)
	}
	entries, err = os.ReadDir(ixDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".orix") {
			t.Errorf("store still holds %s after an age-everything-out GC", e.Name())
		}
	}
}

// TestCLIOutputWriteFailureExitsNonZero is the -o truncation
// regression: a failing output sink (/dev/full returns ENOSPC on
// flush) must exit non-zero with a write error on stderr — never exit
// 0 over a silently truncated m8 file. Covers both CLIs.
func TestCLIOutputWriteFailureExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")

	// Sanity: the pair produces output, so the sink really gets bytes.
	out, _ := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2)
	if len(out) == 0 {
		t.Fatal("degenerate test: scoris produced no output")
	}

	stderr := runToolExpectError(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", "/dev/full")
	if !strings.Contains(stderr, "/dev/full") {
		t.Errorf("scoris write-failure stderr does not name the output file:\n%s", stderr)
	}
	stderr = runToolExpectError(t, "./cmd/goblastn", "-d", est1, "-i", est2, "-o", "/dev/full")
	if !strings.Contains(stderr, "/dev/full") {
		t.Errorf("goblastn write-failure stderr does not name the output file:\n%s", stderr)
	}
}

// TestCLISelfWithQueriesIsUsageError: -self silently ignored -i banks
// before; now the contradiction is refused up front so a typo'd -self
// cannot masquerade as the intended query run.
func TestCLISelfWithQueriesIsUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")

	stderr := runToolExpectError(t, "./cmd/scoris", "-d", est1, "-i", est2, "-self")
	if !strings.Contains(stderr, "-self") || !strings.Contains(stderr, "-i") {
		t.Errorf("usage error does not explain the -self/-i conflict:\n%s", stderr)
	}

	// Each mode alone still works and produces output. The self leg
	// needs a larger bank: at -scale 256 EST1's self-comparison is
	// legitimately empty, so it would assert nothing.
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "64", "-q", "-bank", "EST1")
	out, _ := runTool(t, "./cmd/scoris", "-d", est1, "-self")
	if len(out) == 0 {
		t.Error("-self alone broken: no output")
	}
	out2, _ := runTool(t, "./cmd/scoris", "-d", est1, "-i", est2)
	if len(out2) == 0 {
		t.Error("plain query run broken")
	}
}

func TestCLIPairwiseOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	out, _ := runTool(t, "./cmd/scoris",
		"-d", filepath.Join(dir, "EST1.fasta"),
		"-i", filepath.Join(dir, "EST2.fasta"),
		"-m", "0")
	if !strings.Contains(out, "Query=") || !strings.Contains(out, "Sbjct") {
		t.Errorf("-m 0 did not produce pairwise blocks:\n%.400s", out)
	}
}

// TestCLIScorisdServe drives the real scorisd binary end to end: start
// it on fixture banks, register a query bank over HTTP, compare, check
// the streamed m8 is byte-identical to the scoris CLI's, read /stats,
// then SIGTERM it and require a clean drained exit.
func TestCLIScorisdServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256", "-q",
		"-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")

	// Build the daemon (signals must reach the server binary itself,
	// which `go run`'s wrapper does not guarantee).
	bin := filepath.Join(dir, "scorisd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/scorisd").CombinedOutput(); err != nil {
		t.Fatalf("building scorisd: %v\n%s", err, out)
	}

	// A port of our own choosing that was just free.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr strings.Builder
	daemon := exec.Command(bin, "-addr", addr, "-bank", est1)
	daemon.Stderr = &stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	base := "http://" + addr

	// Wait for the listener.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scorisd never came up: %v\nstderr:\n%s", err, stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Register the query bank, then compare.
	resp, err := http.Post(base+"/v1/banks", "application/json",
		strings.NewReader(`{"name":"est2","path":"`+est2+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bank registration: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/compare", "application/json",
		strings.NewReader(`{"db":"EST1.fasta","query":"est2"}`))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compare: status %d, %v", resp.StatusCode, err)
	}

	// Byte-identical to the CLI for the same pair.
	cliOut := filepath.Join(dir, "cli.m8")
	runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", cliOut)
	cliBytes, err := os.ReadFile(cliOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(served) == 0 || !bytes.Equal(served, cliBytes) {
		t.Errorf("served m8 differs from CLI output (%d vs %d bytes)", len(served), len(cliBytes))
	}

	// /stats reflects the two builds (db + query index).
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(stats), `"builds":2`) {
		t.Errorf("stats does not report 2 builds:\n%s", stats)
	}

	// Graceful shutdown: SIGTERM → drained, exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("scorisd did not exit cleanly on SIGTERM: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("no drain confirmation on stderr:\n%s", stderr.String())
	}
}

func TestCLIExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	out, _ := runTool(t, "./cmd/experiments", "-exp", "datasets", "-scale", "256")
	if !strings.Contains(out, "T1 — data sets") || !strings.Contains(out, "| H10 |") {
		t.Errorf("experiments datasets output malformed:\n%.400s", out)
	}
}

// TestCLIFleetServe is the fleet story end to end with real processes:
// three scorisd workers sharing one -index-dir (two fronted by
// scoris-router's -worker flags, one joining itself via -register),
// banks registered through the router, the db bank's primary owner
// SIGKILLed, and a wave of compares that must nevertheless come back
// byte-identical to the single-process CLI — with the retries visible
// in the router's ledger and a clean router drain at the end.
func TestCLIFleetServe(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	runTool(t, "./cmd/bankgen", "-out", dir, "-scale", "256",
		"-q", "-bank", "EST1", "-bank", "EST2")
	est1 := filepath.Join(dir, "EST1.fasta")
	est2 := filepath.Join(dir, "EST2.fasta")
	ixdir := filepath.Join(dir, "ixstore")

	workerBin := filepath.Join(dir, "scorisd")
	if out, err := exec.Command("go", "build", "-o", workerBin, "./cmd/scorisd").CombinedOutput(); err != nil {
		t.Fatalf("building scorisd: %v\n%s", err, out)
	}
	routerBin := filepath.Join(dir, "scoris-router")
	if out, err := exec.Command("go", "build", "-o", routerBin, "./cmd/scoris-router").CombinedOutput(); err != nil {
		t.Fatalf("building scoris-router: %v\n%s", err, out)
	}

	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	waddrs := []string{freeAddr(), freeAddr(), freeAddr()}
	raddr := freeAddr()
	base := "http://" + raddr

	// w1 and w2 are static -worker entries; w3 announces itself.
	procs := map[string]*exec.Cmd{}
	for i, wa := range waddrs {
		name := fmt.Sprintf("w%d", i+1)
		args := []string{"-addr", wa, "-index-dir", ixdir}
		if i == 2 {
			args = append(args, "-register", base, "-advertise", "http://"+wa, "-worker-name", name)
		}
		cmd := exec.Command(workerBin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		procs[name] = cmd
	}

	var routerErr strings.Builder
	router := exec.Command(routerBin, "-addr", raddr,
		"-worker", "w1=http://"+waddrs[0],
		"-worker", "w2=http://"+waddrs[1],
		"-probe-interval", "200ms", "-retry-base", "10ms")
	router.Stderr = &routerErr
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	defer router.Process.Kill()

	// Wait until the router is up AND all three workers (w3 via its own
	// -register announcement) show as up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/workers")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Count(string(body), `"state":"up"`) == 3 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged to 3 up workers\nrouter stderr:\n%s", routerErr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Register both banks through the router (path specs: the workers
	// load the FASTA themselves).
	for _, reg := range []string{
		`{"name":"db","path":"` + est1 + `","db":true}`,
		`{"name":"q","path":"` + est2 + `"}`,
	} {
		resp, err := http.Post(base+"/v1/banks", "application/json", strings.NewReader(reg))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet bank registration: status %d: %s", resp.StatusCode, body)
		}
	}

	// The serial oracle for the same pair.
	cliOut := filepath.Join(dir, "cli.m8")
	runTool(t, "./cmd/scoris", "-d", est1, "-i", est2, "-o", cliOut)
	want, err := os.ReadFile(cliOut)
	if err != nil {
		t.Fatal(err)
	}

	compare := func() (int, []byte) {
		resp, err := http.Post(base+"/v1/compare", "application/json",
			strings.NewReader(`{"db":"db","query":"q"}`))
		if err != nil {
			return -1, []byte(err.Error())
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Warm-up: the owner builds and persists both indexes to the shared
	// store.
	if status, body := compare(); status != http.StatusOK {
		t.Fatalf("warm-up fleet compare: status %d: %s\nrouter stderr:\n%s", status, body, routerErr.String())
	}

	// Find the db bank's primary owner and SIGKILL it, then run a
	// concurrent wave: zero client-visible failures, every body
	// byte-identical to the CLI.
	resp, err := http.Get(base + "/v1/banks")
	if err != nil {
		t.Fatal(err)
	}
	var banks []struct {
		Name   string   `json:"name"`
		Owners []string `json:"owners"`
	}
	err = json.NewDecoder(resp.Body).Decode(&banks)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var owner string
	for _, b := range banks {
		if b.Name == "db" && len(b.Owners) > 0 {
			owner = b.Owners[0]
		}
	}
	if owner == "" {
		t.Fatalf("router reports no owner for the db bank: %+v", banks)
	}
	if err := procs[owner].Process.Kill(); err != nil {
		t.Fatal(err)
	}

	const waveN = 6
	statuses := make([]int, waveN)
	bodies := make([][]byte, waveN)
	var wg sync.WaitGroup
	for i := 0; i < waveN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = compare()
		}(i)
	}
	wg.Wait()
	for i := range statuses {
		if statuses[i] != http.StatusOK {
			t.Fatalf("wave compare %d after owner kill: status %d: %s\nrouter stderr:\n%s",
				i, statuses[i], bodies[i], routerErr.String())
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("wave compare %d differs from CLI output (%d vs %d bytes)", i, len(bodies[i]), len(want))
		}
	}

	// The ledger shows the failover happened.
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Router struct {
			Retries   int64 `json:"retries"`
			Failovers int64 `json:"failovers"`
			Shed      int64 `json:"shed"`
		} `json:"router"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Router.Failovers < 1 || stats.Router.Retries < 1 {
		t.Errorf("owner kill left no ledger trace: %+v", stats.Router)
	}
	if stats.Router.Shed != 0 {
		t.Errorf("router shed %d compares with live replicas present", stats.Router.Shed)
	}

	// Router drains clean on SIGTERM.
	if err := router.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := router.Wait(); err != nil {
		t.Fatalf("scoris-router did not exit cleanly on SIGTERM: %v\nstderr:\n%s", err, routerErr.String())
	}
	if !strings.Contains(routerErr.String(), "drained; routed") {
		t.Errorf("no drain summary on router stderr:\n%s", routerErr.String())
	}
}
