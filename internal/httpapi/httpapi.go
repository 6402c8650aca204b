// Package httpapi versions the HTTP surface shared by scorisd and the
// fleet router. The service muxes register unversioned paths
// (/compare, /banks, ...); Versioned mounts such a mux under the /v1/
// prefix, which is the only surface either daemon serves — any path
// outside it is a plain 404.
package httpapi

import "net/http"

// Version is the API version prefix every route lives under.
const Version = "/v1"

// Versioned mounts an unversioned API mux under Version: requests under
// /v1/ are served with the prefix stripped, everything else is 404.
func Versioned(mux http.Handler) http.Handler {
	outer := http.NewServeMux()
	outer.Handle(Version+"/", http.StripPrefix(Version, mux))
	return outer
}
