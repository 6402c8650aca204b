// Command scoris-router fronts a fleet of scorisd workers with a
// bank-affinity coordinator: compares route to the workers that own the
// bank (rendezvous hashing over its content key, so every owner keeps a
// hot prepared index), health probes track which workers are up,
// draining, or down, and failures on the data path retry across
// replicas with capped jittered backoff.
//
//	scoris-router -addr :7400 \
//	  -worker w1=http://127.0.0.1:7333 \
//	  -worker w2=http://127.0.0.1:7334 \
//	  -worker w3=http://127.0.0.1:7335
//
// Clients speak the same protocol as a single scorisd — every route
// under /v1/, nothing outside it — and the router reaches its workers
// over /v1/ as well:
//
//	curl -s localhost:7400/v1/banks -d '{"name":"db","path":"est_db.fasta","db":true}'
//	curl -s localhost:7400/v1/compare -d '{"db":"db","query":"q1"}' > run1.m8
//	curl -s localhost:7400/v1/stats | jq .router
//
// Registrations fan out to the bank's owners; compares are idempotent
// and byte-identical across workers, so a dead or hung worker costs a
// retry, never a wrong answer. When no live replica remains the router
// sheds with 503 + Retry-After immediately — degradation is explicit,
// not a growing queue. Workers can also join at runtime (scorisd
// -register, or POST /workers).
//
// Streamed compares (Accept: text/x-m8-stream) and batches
// (POST /compare/batch) relay through the same affinity routing.
// A streamed relay commits to its worker at the first body byte:
// before that byte every failure is retryable on the ladder, after it
// the bytes are with the client and a dying worker can only be sealed
// honestly — the X-Scoris-Status trailer says anything but "complete",
// the tear is counted in /stats (torn_relays), and the worker is
// marked down. See DESIGN.md §10.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflag"
	"repro/internal/fleet"
)

func main() {
	var workerSpecs cliflag.Multi
	var (
		addr           = flag.String("addr", ":7400", "listen address")
		replication    = flag.Int("replication", 0, "owners per bank on the rendezvous ring (0 = default 2)")
		probeInterval  = flag.Duration("probe-interval", 0, "health probe period (0 = default 2s)")
		probeTimeout   = flag.Duration("probe-timeout", 0, "per-probe deadline (0 = default 1s)")
		failThreshold  = flag.Int("fail-threshold", 0, "consecutive probe failures before a worker is down (0 = default 3)")
		compareTimeout = flag.Duration("compare-timeout", 0, "end-to-end deadline for one routed compare, 504 past it (0 = no router-side deadline)")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "deadline for one attempt against one worker (0 = compare-timeout/max-attempts)")
		maxAttempts    = flag.Int("max-attempts", 0, "attempt budget per compare across replicas (0 = default 6)")
		retryBase      = flag.Duration("retry-base", 0, "first retry backoff, doubled per attempt with jitter (0 = default 50ms)")
		retryMax       = flag.Duration("retry-max", 0, "backoff cap (0 = default 2s)")
	)
	flag.Var(&workerSpecs, "worker", "worker to front, as name=url (repeatable); more can join later via POST /workers or scorisd -register")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: scoris-router [-addr :7400] -worker name=url [-worker name=url ...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	rt := fleet.New(fleet.Config{
		Replication:    *replication,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		CompareTimeout: *compareTimeout,
		AttemptTimeout: *attemptTimeout,
		MaxAttempts:    *maxAttempts,
		RetryBase:      *retryBase,
		RetryMax:       *retryMax,
	})
	for _, spec := range workerSpecs {
		name, url, ok := strings.Cut(spec, "=")
		if !ok {
			fatal(fmt.Errorf("bad -worker %q (want name=url)", spec))
		}
		fatal(rt.AddWorker(name, url))
		fmt.Fprintf(os.Stderr, "scoris-router: worker %q at %s\n", name, url)
	}
	rt.Start()
	defer rt.Stop()

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "scoris-router: listening on %s (%d workers)\n", *addr, len(workerSpecs))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "scoris-router: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "scoris-router: drain incomplete:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	st := rt.StatsSnapshot(context.Background())
	fmt.Fprintf(os.Stderr, "scoris-router: drained; routed %d compares (%d retries, %d failovers, %d backfills, %d shed, %d torn relays)\n",
		st.Router.Compares, st.Router.Retries, st.Router.Failovers, st.Router.Backfills, st.Router.Shed, st.Router.TornRelays)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoris-router:", err)
		os.Exit(1)
	}
}
