// Package httpapi versions the HTTP surface shared by scorisd and the
// fleet router. The service muxes register unversioned paths
// (/compare, /banks, ...); Versioned mounts such a mux under the /v1/
// prefix, which is the only surface either daemon serves — any path
// outside it is a plain 404.
package httpapi

import (
	"errors"
	"io"
	"net/http"
)

// Version is the API version prefix every route lives under.
const Version = "/v1"

// The wire vocabulary of a streamed m8 compare, which the worker writes
// and the router relays: the Accept value that asks for one, the
// response header that marks one before its first body byte, and the
// trailer that seals it. Only StatusComplete seals a full result; any
// other trailer value ("cancelled", "error") marks a torn stream.
const (
	// StreamAccept is the Accept value that requests streamed m8
	// delivery (the header form of "stream": true).
	StreamAccept = "text/x-m8-stream"
	// StreamHeader carries StreamMarker on a streamed response.
	StreamHeader = "X-Scoris-Stream"
	StreamMarker = "m8"
	// StatusTrailer is the trailer sealing a streamed response.
	StatusTrailer  = "X-Scoris-Status"
	StatusComplete = "complete"
)

// MaxCompareBody bounds a compare-shaped request's JSON body: bank
// names and a handful of options, so a body past 1 MiB is answered 413
// before it is read. Bank uploads are FASTA, bounded by the largest
// bank (bank.MaxData).
const MaxCompareBody = 1 << 20

// Versioned mounts an unversioned API mux under Version: requests under
// /v1/ are served with the prefix stripped, everything else is 404.
func Versioned(mux http.Handler) http.Handler {
	outer := http.NewServeMux()
	outer.Handle(Version+"/", http.StripPrefix(Version, mux))
	return outer
}

// ReadBody reads r's body, at most limit bytes of it. When the read
// fails it returns the status to answer with: 413 past the limit, 400
// for any other error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return body, 0, nil
}
