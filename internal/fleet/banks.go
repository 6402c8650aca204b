package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"

	"repro/internal/bank"
	"repro/internal/httpapi"
	"repro/internal/server"
)

// bankKey is the routing identity of a bank: the same content triple
// (CRC-64/ECMA, data length, sequence count) that keys its .orix file,
// so "which workers own this bank" and "which store file holds its
// index" agree on what a bank is.
func bankKey(b *bank.Bank) string {
	return fmt.Sprintf("%016x-%x-%x", b.Checksum(), len(b.Data), b.NumSeqs())
}

// bankInfo is the router's answer for one bank (GET /banks rows and
// POST /banks responses).
type bankInfo struct {
	Name      string   `json:"name"`
	Key       string   `json:"key"`
	DB        bool     `json:"db"`
	Sequences int      `json:"sequences"`
	Bases     int      `json:"bases"`
	Owners    []string `json:"owners"`
	// RegisteredOn lists the owners that accepted the registration now;
	// owners that were down get backfilled on their first routed
	// compare instead.
	RegisteredOn []string `json:"registered_on,omitempty"`
	// Errors carries per-owner registration failures (the bank is still
	// routable: any live worker can be backfilled on demand).
	Errors []string `json:"errors,omitempty"`
}

// handleBanks mirrors the scorisd /banks surface at fleet scope: a POST
// registers the bank with the router (which computes its content key
// for routing) and fans the registration out to the bank's owners; a
// GET lists the fleet's banks with their ownership.
func (rt *Router) handleBanks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		rt.mu.RLock()
		recs := make([]*bankRecord, 0, len(rt.banks))
		for _, rec := range rt.banks {
			recs = append(recs, rec)
		}
		rt.mu.RUnlock()
		infos := make([]bankInfo, 0, len(recs))
		for _, rec := range recs {
			infos = append(infos, rt.infoFor(rec))
		}
		// The records came out of a map: sort so the listing is
		// byte-deterministic (the byte-identity invariant applies to
		// every JSON surface, not just compare output).
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(infos)
	case http.MethodPost:
		rt.registerBank(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (rt *Router) infoFor(rec *bankRecord) bankInfo {
	owners := rt.owners(rec.Key)
	names := make([]string, len(owners))
	for i, o := range owners {
		names[i] = o.Name
	}
	return bankInfo{
		Name: rec.Name, Key: rec.Key, DB: rec.DB,
		Sequences: rec.Seqs, Bases: rec.Bases, Owners: names,
	}
}

// registerBank accepts exactly the bodies scorisd does — it parses them
// with scorisd's own server.LoadBankBody — loads the bank once to
// compute its content key (the bank itself is not retained: workers
// hold the data, the router holds identity), records a replayable spec,
// and fans the registration to the owners the key hashes to.
func (rt *Router) registerBank(w http.ResponseWriter, r *http.Request) {
	body, status, err := httpapi.ReadBody(w, r, bank.MaxData)
	if err != nil {
		httpError(w, status, "reading bank request: %v", err)
		return
	}
	req, b, err := server.LoadBankBody(body, r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec := &bankRecord{
		Name: req.Name, Key: bankKey(b), DB: req.DB,
		Seqs: b.NumSeqs(), Bases: b.TotalBases(),
	}
	if req.Path == "" {
		rec.fasta = body
	} else {
		rec.specJSON, _ = json.Marshal(req)
	}

	rt.mu.Lock()
	if prev, ok := rt.banks[rec.Name]; ok && prev.Key != rec.Key {
		rt.mu.Unlock()
		httpError(w, http.StatusConflict, "bank %q already registered with different content", rec.Name)
		return
	} else if ok {
		// Idempotent re-registration; like scorisd, db can upgrade but
		// never silently downgrade.
		rec.DB = rec.DB || prev.DB
	}
	rt.banks[rec.Name] = rec
	rt.mu.Unlock()

	// Fan out to the owners that are reachable right now; the others
	// are backfilled on their first routed compare.
	info := rt.infoFor(rec)
	for _, owner := range rt.owners(rec.Key) {
		if owner.State() == StateDown {
			info.Errors = append(info.Errors, owner.Name+": down, deferred to backfill")
			continue
		}
		if err := rt.registerOn(r.Context(), owner, rec); err != nil {
			info.Errors = append(info.Errors, owner.Name+": "+err.Error())
			continue
		}
		info.RegisteredOn = append(info.RegisteredOn, owner.Name)
	}
	if len(info.RegisteredOn) == 0 && len(rt.workerList()) > 0 {
		// Nobody took it — still recorded for backfill, but the client
		// should know the fleet is in trouble.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(info)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// registerOn replays rec's registration onto one worker — the fan-out
// path at registration time, and the backfill path when failover routes
// a compare to a worker that never saw the bank. scorisd registration
// is idempotent for identical content, so replaying is always safe.
func (rt *Router) registerOn(ctx context.Context, wk *worker, rec *bankRecord) error {
	var (
		target      string
		contentType string
		payload     []byte
	)
	if rec.fasta != nil {
		q := url.Values{"name": {rec.Name}}
		if rec.DB {
			q.Set("db", "1")
		}
		target = wk.api("/banks?" + q.Encode())
		contentType = "text/x-fasta"
		payload = rec.fasta
	} else {
		target = wk.api("/banks")
		contentType = "application/json"
		payload = rec.specJSON
	}
	actx := ctx
	if rt.cfg.ProbeTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, 10*rt.cfg.ProbeTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, target, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("worker %s: bank registration: HTTP %d: %s", wk.Name, resp.StatusCode, bytes.TrimSpace(b))
	}
	return nil
}
