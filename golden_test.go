package scoris

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bank"
	"repro/internal/dna"
	"repro/internal/fasta"
	"repro/internal/server"
	"repro/internal/simulate"
)

// The golden-m8 corpus pins the result bytes of every delivery path to
// committed files: testdata/golden/<case>.m8 is the reference output
// for one (engine, strand, dust, sampling) point, and the CLI, the
// buffered server, the streamed server, the batch endpoint, and the
// async-job path must each reproduce it byte for byte. A diff in any
// path — or between paths — fails loudly against a file a human can
// read, instead of silently shifting with the engines.
//
// Regenerate after an intentional result change with:
//
//	go test -run TestGoldenM8 -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.m8 from the current engines")

// goldenCase is one corpus point: the /compare request that produces
// it, and the scoris CLI flags that ask for the same thing (nil for
// engines the CLI does not drive).
type goldenCase struct {
	name string
	req  string
	cli  []string
}

var goldenCases = []goldenCase{
	{"oris-default", `{"db":"db","query":"q"}`, []string{}},
	{"oris-both-strands", `{"db":"db","query":"q","both_strands":true}`, []string{"-S", "3"}},
	{"oris-nodust", `{"db":"db","query":"q","dust":false}`, []string{"-F=false"}},
	{"oris-sampled", `{"db":"db","query":"q","asymmetric":true}`, []string{"-asymmetric"}},
	{"oris-both-nodust-sampled",
		`{"db":"db","query":"q","both_strands":true,"dust":false,"asymmetric":true}`,
		[]string{"-S", "3", "-F=false", "-asymmetric"}},
	{"blat-default", `{"db":"db","query":"q","engine":"blat"}`, nil},
	{"blat-nodust", `{"db":"db","query":"q","engine":"blat","dust":false}`, nil},
	{"blastn-default", `{"db":"db","query":"q","engine":"blastn"}`, nil},
	{"blastn-both-strands", `{"db":"db","query":"q","engine":"blastn","both_strands":true}`, nil},
}

// writeFastaFile renders a bank to a FASTA file, so the CLI loads the
// exact sequences the in-process server was registered with.
func writeFastaFile(t *testing.T, path string, b *bank.Bank) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fasta.NewWriter(f)
	for i := 0; i < b.NumSeqs(); i++ {
		rec := &fasta.Record{ID: b.SeqID(i), Desc: b.SeqDesc(i), Seq: dna.Decode(b.SeqCodes(i))}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// postBytes POSTs a body and returns status plus the full response.
func postBytes(t *testing.T, url, body, accept string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// batchBody rewrites a /compare request body into its /compare/batch
// single-query form: the query field becomes a one-element queries list.
func batchBody(t *testing.T, compareReq string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(compareReq), &m); err != nil {
		t.Fatal(err)
	}
	q, _ := m["query"].(string)
	delete(m, "query")
	m["queries"] = []string{q}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// jobResult runs a compare through the async-job path: enqueue, poll to
// a terminal state, fetch the result bytes.
func jobResult(t *testing.T, base, compareReq string) []byte {
	t.Helper()
	status, body := postBytes(t, base+"/v1/jobs", compareReq, "")
	if status != http.StatusAccepted {
		t.Fatalf("job create: status %d: %s", status, body)
	}
	var created struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + created.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("job %s ended %s: %s", created.ID, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", created.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/v1/jobs/" + created.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tr := resp.Trailer.Get("X-Scoris-Status"); tr != "complete" {
		t.Fatalf("job result trailer = %q, want complete", tr)
	}
	return b
}

// TestGoldenM8 checks every delivery path against the committed corpus.
func TestGoldenM8(t *testing.T) {
	ds := simulate.NewDataSet(256)
	est1, est2 := ds.Get(simulate.EST1), ds.Get(simulate.EST2)

	srv := server.New(server.Config{})
	if err := srv.RegisterBank("db", est1, true); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterBank("q", est2, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One FASTA pair for every CLI leg.
	dir := t.TempDir()
	dbFasta := filepath.Join(dir, "db.fasta")
	qFasta := filepath.Join(dir, "q.fasta")
	writeFastaFile(t, dbFasta, est1)
	writeFastaFile(t, qFasta, est2)

	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			golden := filepath.Join("testdata", "golden", c.name+".m8")

			status, buffered := postBytes(t, ts.URL+"/v1/compare", c.req, "")
			if status != http.StatusOK {
				t.Fatalf("buffered compare: status %d: %s", status, buffered)
			}
			if len(buffered) == 0 {
				t.Fatal("degenerate corpus point: the buffered compare found nothing")
			}

			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buffered, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(buffered, want) {
				t.Errorf("buffered server output differs from %s (%d vs %d bytes)", golden, len(buffered), len(want))
			}

			status, streamed := postBytes(t, ts.URL+"/v1/compare", c.req, "text/x-m8-stream")
			if status != http.StatusOK || !bytes.Equal(streamed, want) {
				t.Errorf("streamed server output differs from %s (status %d, %d vs %d bytes)",
					golden, status, len(streamed), len(want))
			}

			status, batched := postBytes(t, ts.URL+"/v1/compare/batch", batchBody(t, c.req), "")
			if status != http.StatusOK || !bytes.Equal(batched, want) {
				t.Errorf("batch output differs from %s (status %d, %d vs %d bytes)",
					golden, status, len(batched), len(want))
			}

			if job := jobResult(t, ts.URL, c.req); !bytes.Equal(job, want) {
				t.Errorf("job result differs from %s (%d vs %d bytes)", golden, len(job), len(want))
			}

			if c.cli == nil {
				return
			}
			if testing.Short() {
				t.Skip("CLI leg skipped in -short mode")
			}
			out := filepath.Join(dir, c.name+".m8")
			args := append([]string{"./cmd/scoris", "-d", dbFasta, "-i", qFasta, "-o", out}, c.cli...)
			runTool(t, args...)
			cliBytes, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cliBytes, want) {
				t.Errorf("CLI output differs from %s (%d vs %d bytes)", golden, len(cliBytes), len(want))
			}
		})
	}

	// The corpus is one suite: stale files for dropped cases would pin
	// nothing, so the directory must hold exactly the cases above.
	if !*updateGolden {
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(goldenCases) {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Errorf("testdata/golden holds %d files for %d cases: %v", len(entries), len(goldenCases), names)
		}
	}
}
