package server

import (
	"testing"

	"repro/internal/httpapi"
)

// FuzzParseCompareRequest throws arbitrary bytes at the /compare (and
// /jobs, /compare/batch prefix) JSON parser. Any input may be rejected;
// none may panic, and an accepted request must satisfy the structural
// contract every handler downstream assumes: both bank names present.
func FuzzParseCompareRequest(f *testing.F) {
	f.Add([]byte(`{"db":"a","query":"b"}`), "")
	f.Add([]byte(`{"db":"a","self":true,"engine":"blastn","w":11}`), "")
	f.Add([]byte(`{"db":"a","query":"b","stream":true}`), "")
	f.Add([]byte(`{"db":"a","query":"b","format":"json"}`), httpapi.StreamAccept)
	f.Add([]byte(`{"db":"a","query":"b","max_evalue":1e-5,"both_strands":true}`), "application/json, "+httpapi.StreamAccept)
	f.Add([]byte(`{"db":"a","self":true,"query":"b"}`), "")
	f.Add([]byte(`{`), "")
	f.Add([]byte(`[]`), "")
	f.Add([]byte(`{"db":1}`), "")
	f.Add([]byte(``), "text/html")
	f.Fuzz(func(t *testing.T, body []byte, accept string) {
		req, err := parseCompareRequest(body, accept)
		if err != nil {
			return
		}
		if req.DB == "" || req.Query == "" {
			t.Fatalf("accepted request without bank names: %+v", req)
		}
	})
}

// FuzzParseBankBody throws arbitrary bytes at the POST /banks body
// dispatcher, which must tell JSON registrations from raw FASTA by
// content and never panic. An accepted FASTA body must parse to a bank
// of at least one record; an accepted JSON body must carry a load path.
func FuzzParseBankBody(f *testing.F) {
	f.Add([]byte(`{"name":"b1","path":"/tmp/x.fa","db":true}`))
	f.Add([]byte(">r1 desc\nACGTACGT\n>r2\nTTTT\n"))
	f.Add([]byte("  \r\n\t>r1\nACGT"))
	f.Add([]byte(`{"name":"b1"}`))
	f.Add([]byte(">"))
	f.Add([]byte("ACGT"))
	f.Add([]byte(``))
	f.Add([]byte(`{"path":">"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, b, err := parseBankBody(body, "fuzz")
		if err != nil {
			return
		}
		if b != nil {
			if b.NumSeqs() == 0 {
				t.Fatal("accepted FASTA body with no records")
			}
			return
		}
		if req.Path == "" {
			t.Fatal("accepted JSON bank request without a path")
		}
	})
}
