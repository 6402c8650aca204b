// Package fixture holds the sanctioned mount pattern the
// versionedmount analyzer must stay silent on: handlers registered on
// an inner mux that the same function mounts under /v1 with
// httpapi.Versioned.
package fixture

import (
	"fmt"
	"net/http"

	"repro/internal/httpapi"
)

func handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compare", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/stats", http.NotFoundHandler())
	return httpapi.Versioned(mux)
}
