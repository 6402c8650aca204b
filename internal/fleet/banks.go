package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bank"
	"repro/internal/fasta"
	"repro/internal/ixdisk"
)

// bankKey is the routing identity of a bank: the same content triple
// (CRC-64/ECMA, data length, sequence count) that keys its .orix file,
// so "which workers own this bank" and "which store file holds its
// index" agree on what a bank is.
func bankKey(b *bank.Bank) string {
	return fmt.Sprintf("%016x-%x-%x", ixdisk.BankChecksum(b), len(b.Data), b.NumSeqs())
}

// fill records the bank's routing identity on the record: the rendered
// key plus its raw components and per-sequence checksums (for matching
// store files — exact or prefix — by identity).
func (rec *bankRecord) fill(b *bank.Bank) {
	rec.Key, rec.Seqs, rec.Bases = bankKey(b), b.NumSeqs(), b.TotalBases()
	rec.crc, rec.dataLen = ixdisk.BankChecksum(b), len(b.Data)
	rec.seqSums = b.SeqChecksums()
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
	// IndexFiles and IndexBlocks report what the shared index store
	// (Config.IndexDir) holds for this bank's identity: how many .orix
	// files match it — exact matches and stored prefixes of it both
	// count, since either warms a worker — and the total v3 blocks
	// across them. Learned by probing file metadata only; omitted when
	// the router has no IndexDir configured.
	IndexFiles  int `json:"index_files,omitempty"`
	IndexBlocks int `json:"index_blocks,omitempty"`
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
			info := rt.infoFor(rec)
			infos = append(infos, info)
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
	info := bankInfo{
		Name: rec.Name, Key: rec.Key, DB: rec.DB,
		Sequences: rec.Seqs, Bases: rec.Bases, Owners: names,
	}
	info.IndexFiles, info.IndexBlocks = rt.storedIndexes(rec)
	return info
}

// storedIndexes scans the shared index store for files matching rec's
// bank — the exact bank, or a stored prefix of it (which a worker can
// complete with one appended block). Identity comes from each file's
// probed metadata alone: the fixed header and, for v3, the footer
// directory. No index payload is ever read, so a /banks listing stays
// cheap no matter how large the stored indexes are.
func (rt *Router) storedIndexes(rec *bankRecord) (files, blocks int) {
	dir := rt.cfg.IndexDir
	if dir == "" {
		return 0, 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ixdisk.FileExt) {
			continue
		}
		info, err := ixdisk.Probe(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		exact := info.BankCRC == rec.crc && info.DataLen == int64(rec.dataLen) &&
			info.NumSeqs == rec.Seqs
		if !exact && !rec.isPrefix(info) {
			continue
		}
		files++
		blocks += len(info.Blocks)
	}
	return files, blocks
}

// isPrefix reports whether the probed file records a strict
// sequence-prefix of rec's bank: fewer sequences, each matching the
// bank's per-sequence checksum in order.
func (rec *bankRecord) isPrefix(info *ixdisk.FileInfo) bool {
	if info.NumSeqs <= 0 || info.NumSeqs >= rec.Seqs || len(rec.seqSums) < info.NumSeqs {
		return false
	}
	for i, sum := range info.SeqSums {
		if rec.seqSums[i] != sum {
			return false
		}
	}
	return true
}

// registerBank accepts the same two body shapes scorisd does — a JSON
// {"name","path","db"} spec naming a FASTA file, or raw FASTA text with
// ?name= (and ?db=1) query parameters — loads the bank once to compute
// its content key, records a replayable spec, and fans the registration
// to the owners the key hashes to.
func (rt *Router) registerBank(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading bank request: %v", err)
		return
	}
	rec := &bankRecord{}
	if bytes.HasPrefix(bytes.TrimLeft(body, " \t\r\n"), []byte(">")) {
		rec.Name = r.URL.Query().Get("name")
		rec.DB = r.URL.Query().Get("db") != "" && r.URL.Query().Get("db") != "0"
		if rec.Name == "" {
			httpError(w, http.StatusBadRequest, "FASTA-body registration needs a ?name= parameter")
			return
		}
		recs, err := fasta.ParseAll(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parsing FASTA body: %v", err)
			return
		}
		if len(recs) == 0 {
			httpError(w, http.StatusBadRequest, "FASTA body holds no sequences")
			return
		}
		b := bank.New(rec.Name, recs)
		rec.fill(b)
		rec.fasta = body
	} else {
		var req struct {
			Name string `json:"name"`
			Path string `json:"path"`
			DB   bool   `json:"db"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad bank request: %v", err)
			return
		}
		if req.Path == "" {
			httpError(w, http.StatusBadRequest, "bank request needs a path (or POST FASTA text with a ?name= parameter)")
			return
		}
		if req.Name == "" {
			req.Name = req.Path
		}
		// Load once, router-side, to learn the content key the bank
		// routes by; the bank itself is not retained (workers hold the
		// data, the router holds identity).
		b, err := bank.FromFile(req.Name, req.Path)
		if err != nil {
			httpError(w, http.StatusBadRequest, "loading bank: %v", err)
			return
		}
		rec.Name, rec.DB = req.Name, req.DB
		rec.fill(b)
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
