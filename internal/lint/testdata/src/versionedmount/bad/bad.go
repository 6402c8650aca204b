// Package fixture seeds the unversioned-mount classes the
// versionedmount analyzer must catch — handlers that would answer
// outside /v1: a raw mux that never passes through httpapi.Versioned,
// and the global DefaultServeMux.
package fixture

import (
	"fmt"
	"net/http"
)

func rawHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compare", func(w http.ResponseWriter, r *http.Request) { // want `raw \*http\.ServeMux`
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/stats", http.NotFoundHandler()) // want `raw \*http\.ServeMux`
	return mux
}

func globalMux() {
	http.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {}) // want `DefaultServeMux`
}
