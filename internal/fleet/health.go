package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Start launches the health loop: every ProbeInterval, each worker's
// /readyz is probed (concurrently, each bounded by ProbeTimeout) and
// run through the up/draining/down state machine. Idempotent.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		rt.started.Store(true)
		// background: runs until Stop closes stopProbes; Stop joins it
		// through probesDone.
		go rt.probeLoop()
	})
}

// Stop halts the health loop (idempotent; waits for the loop to exit).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopProbes) })
	if rt.started.Load() {
		<-rt.probesDone
	}
}

func (rt *Router) probeLoop() {
	defer close(rt.probesDone)
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	rt.ProbeAll() // settle initial states without waiting a period
	for {
		select {
		case <-rt.stopProbes:
			return
		case <-ticker.C:
			rt.ProbeAll()
		}
	}
}

// ProbeAll sweeps every worker once, synchronously (the health loop's
// body; also the deterministic lever tests and the CLI use).
func (rt *Router) ProbeAll() {
	var wg sync.WaitGroup
	for _, wk := range rt.workerList() {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			rt.probeWorker(wk)
		}(wk)
	}
	wg.Wait()
}

func (rt *Router) probeWorkerByName(name string) {
	rt.mu.RLock()
	wk := rt.workers[name]
	rt.mu.RUnlock()
	if wk != nil {
		rt.probeWorker(wk)
	}
}

// probeWorker asks one worker for readiness and advances its state:
//
//	200        → Up        (failure streak forgiven)
//	503        → Draining  (alive, not taking new routes; scorisd flips
//	                        /readyz the moment its graceful drain starts,
//	                        and a store outage reads the same way)
//	error/oth. → failure; FailThreshold consecutive failures → Down
func (rt *Router) probeWorker(wk *worker) {
	rt.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.api("/readyz"), nil)
	if err != nil {
		rt.probeFails.Add(1)
		wk.noteFail(err, rt.cfg.FailThreshold, false)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.probeFails.Add(1)
		wk.noteFail(err, rt.cfg.FailThreshold, false)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		wk.setUp()
	case http.StatusServiceUnavailable:
		reason := strings.TrimSpace(string(body))
		wk.setDraining(reason)
	default:
		rt.probeFails.Add(1)
		wk.noteFail(fmt.Errorf("readyz: HTTP %d", resp.StatusCode), rt.cfg.FailThreshold, false)
	}
}
