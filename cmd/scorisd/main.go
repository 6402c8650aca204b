// Command scorisd is the long-lived comparison service: the intensive
// bank-vs-bank workload of the paper served over HTTP from prepared
// indexes instead of re-run as one-shot CLI invocations.
//
//	scorisd -addr :7333 -index-dir .ixstore -bank db=est_db.fasta
//
// Banks registered at startup (-bank, repeatable) or at runtime
// (POST /banks) are indexed on first touch and never again: the shared
// in-process cache single-flights concurrent builds, and with
// -index-dir the on-disk store tier makes even process restarts warm
// (zero builds, proven live by GET /stats).
//
//	curl -s localhost:7333/v1/banks -d '{"name":"q1","path":"run1.fasta"}'
//	curl -s localhost:7333/v1/compare -d '{"db":"db","query":"q1"}' > run1.m8
//	curl -s localhost:7333/v1/stats | jq .cache.builds
//
// Every route lives under /v1/ and nowhere else; any other path is a
// 404 (DESIGN.md §8).
//
// Results also flow instead of accumulating: ask for a streamed compare
// (Accept: text/x-m8-stream, backpressure bounded by -stream-buffer),
// batch many query banks under one admission slot (POST /compare/batch),
// or decouple a long compare from its request entirely (POST /jobs,
// bounded by -max-jobs). See DESIGN.md §10 for the lifecycle and the
// X-Scoris-Status trailer contract.
//
// Concurrency is bounded: at most -max-concurrent compares run at once,
// at most -queue more wait, and anything beyond that is rejected with
// 429 (fast backpressure instead of unbounded queueing). Each request's
// Workers option is clamped to -request-workers so one compare cannot
// monopolize the machine. On SIGINT/SIGTERM the server stops accepting
// and drains in-flight compares before exiting (bounded by
// -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/bank"
	"repro/internal/cliflag"
	"repro/internal/httpapi"
	"repro/internal/ixdisk"
	"repro/internal/server"
)

func main() {
	var bankSpecs cliflag.Multi
	var (
		addr         = flag.String("addr", ":7333", "listen address")
		maxConc      = flag.Int("max-concurrent", 0, "comparison worker pool size (0 = all cores)")
		queue        = flag.Int("queue", 0, "admitted requests allowed to wait beyond the running ones before 429 (0 = 2×max-concurrent, negative = none)")
		reqWorkers   = flag.Int("request-workers", 0, "per-request Workers cap (0 = cores/max-concurrent, floor 1)")
		cacheEntries = flag.Int("cache", 0, "in-memory index cache bound in entries (0 = default)")
		maxBanks     = flag.Int("max-banks", 0, "registry bound: registrations past this many banks are refused — each bank pins its sequence data in memory; DELETE /banks releases spent ones (0 = default 1024)")
		indexDir     = flag.String("index-dir", "", "persistent on-disk index store directory (same store the scoris CLI uses): restarts then serve with zero index builds")
		ixSave       = flag.String("index-save", "all", "store save policy: 'all' persists every built index, 'db' persists only banks registered as db banks")
		ixMaxMB      = flag.Int64("index-max-mb", 0, "garbage-collect the index store down to this many megabytes, oldest files first (0 = unbounded)")
		ixMaxAge     = flag.Duration("index-max-age", 0, "garbage-collect index files unused for longer than this duration (0 = no age bound)")
		streamBuf    = flag.Int("stream-buffer", 0, "streamed-compare backpressure bound: how many finished query-sequence groups the engine may run ahead of a slow client before it blocks (0 = default 4)")
		maxJobs      = flag.Int("max-jobs", 0, "async job registry bound: queued, running, and finished-but-unretrieved jobs all count; POST /jobs past this answers 429 (0 = default 32)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight compares to finish")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-compare deadline: a compare still running past this answers 504; every engine stops at its next query-sequence group (an oris compare also at its next step-2 chunk), and the slot frees when the engine returns (0 = no deadline)")
		registerWith = flag.String("register", "", "scoris-router base URL to self-register with at startup (e.g. http://router:7400); retried in the background until it succeeds")
		advertise    = flag.String("advertise", "", "URL this worker is reachable at, as told to the router (required with -register)")
		workerName   = flag.String("worker-name", "", "name to register under with -register (default: the -advertise URL)")
	)
	flag.Var(&bankSpecs, "bank", "bank to register at startup, as [name=]path.fasta (repeatable); startup banks are registered as long-lived db banks")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: scorisd [-addr :7333] [-bank [name=]db.fasta ...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *registerWith != "" && *advertise == "" {
		fatal(errors.New("-register needs -advertise (the URL the router should reach this worker at)"))
	}

	cfg := server.Config{
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queue,
		RequestWorkers: *reqWorkers,
		CacheEntries:   *cacheEntries,
		MaxBanks:       *maxBanks,
		RequestTimeout: *reqTimeout,
		StreamBuffer:   *streamBuf,
		MaxJobs:        *maxJobs,
	}
	if *indexDir != "" {
		store, err := ixdisk.NewDirStore(*indexDir)
		fatal(err)
		switch *ixSave {
		case "all":
			store.SetSavePolicy(ixdisk.SavePolicy{})
		case "db":
			store.SetSavePolicy(ixdisk.SavePolicy{DBOnly: true})
		default:
			fatal(fmt.Errorf("invalid -index-save %q (use all or db)", *ixSave))
		}
		store.SetGC(ixdisk.GCConfig{MaxBytes: *ixMaxMB << 20, MaxAge: *ixMaxAge})
		cfg.Store = store
	}
	srv := server.New(cfg)

	// Startup banks are by definition the long-lived side of the
	// workload, so they register as db banks (MarkDB'd into the store
	// when one is configured).
	for _, spec := range bankSpecs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			name, path = filepath.Base(spec), spec
		}
		b, err := bank.FromFile(name, path)
		fatal(err)
		fatal(srv.RegisterBank(name, b, true))
		fmt.Fprintf(os.Stderr, "scorisd: registered db bank %q: %d sequences, %.3f Mbp\n",
			name, b.NumSeqs(), b.Mbp())
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the listener
	// and drains in-flight compares; the process exits 0 only once the
	// drain completes (a second signal kills it the usual way, since
	// the context restores default signal handling after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop() // no-op after the explicit post-signal stop below

	errc := make(chan error, 1)
	go func() {
		ecfg := srv.Config()
		fmt.Fprintf(os.Stderr, "scorisd: listening on %s (pool %d, queue %d, %d workers per request)\n",
			*addr, ecfg.MaxConcurrent, ecfg.QueueDepth, ecfg.RequestWorkers)
		errc <- hs.ListenAndServe()
	}()

	// Fleet self-registration: announce this worker to the router in
	// the background, retrying until it answers (the router may start
	// after its workers). Registration is idempotent, so re-announcing
	// after a router restart is equally safe.
	if *registerWith != "" {
		name := *workerName
		if name == "" {
			name = *advertise
		}
		go func() {
			body := fmt.Sprintf(`{"name":%q,"url":%q}`, name, *advertise)
			for {
				resp, err := http.Post(strings.TrimRight(*registerWith, "/")+httpapi.Version+"/workers",
					"application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						fmt.Fprintf(os.Stderr, "scorisd: registered with router %s as %q (%s)\n",
							*registerWith, name, *advertise)
						return
					}
					err = fmt.Errorf("router answered HTTP %d", resp.StatusCode)
				}
				fmt.Fprintf(os.Stderr, "scorisd: router registration: %v (retrying)\n", err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Second):
				}
			}
		}()
	}

	select {
	case err := <-errc:
		// Listener failed before any signal (port in use, etc.).
		fatal(err)
	case <-ctx.Done():
	}
	// Restore default signal handling NOW, not at main exit: a second
	// SIGINT/SIGTERM during a slow drain must kill the process the
	// usual way instead of being swallowed by the still-registered
	// Notify channel.
	stop()
	// Flip readiness BEFORE the listener stops: a router probing
	// /readyz sees "draining" on its next sweep and routes new compares
	// to the other replicas while this process finishes its in-flight
	// work.
	srv.SetDraining(true)
	fmt.Fprintln(os.Stderr, "scorisd: shutting down: draining in-flight compares")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "scorisd: drain incomplete:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	st := srv.StatsSnapshot()
	fmt.Fprintf(os.Stderr, "scorisd: drained; served %d compares (%d rejected), %d index builds, %d disk hits\n",
		st.Server.Compares, st.Server.Rejected, st.Cache.Builds, st.Cache.DiskHits)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "scorisd:", err)
		os.Exit(1)
	}
}
