package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/server"
)

// RouterStats are the router's own counters: the robustness ledger
// (retries, failovers, backfills, sheds) the chaos tests assert on.
type RouterStats struct {
	Requests    int64 `json:"requests"`
	Compares    int64 `json:"compares"`
	Retries     int64 `json:"retries"`
	Failovers   int64 `json:"failovers"`
	Backfills   int64 `json:"backfills"`
	Shed        int64 `json:"shed"`
	TimedOut    int64 `json:"timed_out"`
	TornRelays  int64 `json:"torn_relays"`
	Probes      int64 `json:"probes"`
	ProbeFails  int64 `json:"probe_failures"`
	Banks       int   `json:"banks"`
	Replication int   `json:"replication"`
	WorkersUp   int   `json:"workers_up"`
	WorkersDrn  int   `json:"workers_draining"`
	WorkersDown int   `json:"workers_down"`
}

// WorkerStats is one worker's row in the fleet ledger: its registry
// entry plus the live /stats payload (nil, with Error set, for workers
// that could not answer).
type WorkerStats struct {
	Name  string        `json:"name"`
	URL   string        `json:"url"`
	State string        `json:"state"`
	Stats *server.Stats `json:"stats,omitempty"`
	Error string        `json:"error,omitempty"`
}

// Totals sums the key per-worker counters fleet-wide — the same
// amortization ledger scorisd exposes, at fleet scope: compares served,
// rejections and abandonments, index builds, and disk hits (the proof
// that a shared store makes replacement workers warm).
type Totals struct {
	Compares  int64 `json:"compares"`
	Rejected  int64 `json:"rejected"`
	Abandoned int64 `json:"abandoned"`
	TimedOut  int64 `json:"timed_out"`
	Builds    int64 `json:"builds"`
	DiskHits  int64 `json:"disk_hits"`
	Lookups   int64 `json:"lookups"`
}

// Stats is the router's /stats payload.
type Stats struct {
	Router  RouterStats   `json:"router"`
	Workers []WorkerStats `json:"workers"`
	Totals  Totals        `json:"totals"`
}

// StatsSnapshot assembles the fleet ledger, fetching each reachable
// worker's /stats concurrently (bounded by ProbeTimeout each; a worker
// that cannot answer is reported, not waited for).
func (rt *Router) StatsSnapshot(ctx context.Context) Stats {
	workers := rt.workerList()
	rt.mu.RLock()
	nBanks := len(rt.banks)
	rt.mu.RUnlock()

	st := Stats{
		Router: RouterStats{
			Requests:    rt.requests.Load(),
			Compares:    rt.compares.Load(),
			Retries:     rt.retries.Load(),
			Failovers:   rt.failovers.Load(),
			Backfills:   rt.backfills.Load(),
			Shed:        rt.shed.Load(),
			TimedOut:    rt.timedOut.Load(),
			TornRelays:  rt.tornRelays.Load(),
			Probes:      rt.probes.Load(),
			ProbeFails:  rt.probeFails.Load(),
			Banks:       nBanks,
			Replication: rt.cfg.Replication,
		},
		Workers: make([]WorkerStats, len(workers)),
	}

	var wg sync.WaitGroup
	for i, wk := range workers {
		state, _, lastErr := wk.snapshot()
		switch state {
		case StateUp:
			st.Router.WorkersUp++
		case StateDraining:
			st.Router.WorkersDrn++
		case StateDown:
			st.Router.WorkersDown++
		}
		row := &st.Workers[i]
		row.Name, row.URL, row.State = wk.Name, wk.URL, state.String()
		if state == StateDown {
			row.Error = lastErr
			continue
		}
		wg.Add(1)
		go func(wk *worker, row *WorkerStats) {
			defer wg.Done()
			ws, err := rt.fetchWorkerStats(ctx, wk)
			if err != nil {
				row.Error = err.Error()
				return
			}
			row.Stats = ws
		}(wk, row)
	}
	wg.Wait()

	for i := range st.Workers {
		ws := st.Workers[i].Stats
		if ws == nil {
			continue
		}
		st.Totals.Compares += ws.Server.Compares
		st.Totals.Rejected += ws.Server.Rejected
		st.Totals.Abandoned += ws.Server.Abandoned
		st.Totals.TimedOut += ws.Server.TimedOut
		st.Totals.Builds += ws.Cache.Builds
		st.Totals.DiskHits += ws.Cache.DiskHits
		st.Totals.Lookups += ws.Cache.Lookups
	}
	return st
}

func (rt *Router) fetchWorkerStats(ctx context.Context, wk *worker) (*server.Stats, error) {
	actx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, wk.api("/stats"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ws server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		return nil, err
	}
	return &ws, nil
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.StatsSnapshot(r.Context()))
}
