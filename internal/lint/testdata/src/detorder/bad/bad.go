// Package fixture seeds the map-order leaks the detorder analyzer must
// catch: values that flow out of a map range into emitted bytes with
// no sort in between — including when the building and the emitting
// happen in different functions.
package fixture

import (
	"encoding/json"
	"fmt"
	"io"
)

// collect builds a listing in map-iteration order: whoever emits it
// inherits the nondeterminism.
func collect(m map[string]int) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	return names
}

// emit is the interprocedural pair: the map range is in collect, the
// emission here.
func emit(w io.Writer, m map[string]int) error {
	names := collect(m)
	return json.NewEncoder(w).Encode(names) // want `map iteration at .* reach a JSON response`
}

// direct ranges and prints in one body.
func direct(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `map iteration at .* reach a formatted output stream`
	}
}

// deep ranges a map into a slice and hands it to a chain 24 calls
// deep; only the last link encodes. The finding needs every link's
// summary, however many there are.
func deep(w io.Writer, m map[string]int) {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	fwd00(w, names) // want `map iteration at .* reach an output written by fwd00`
}

func fwd00(w io.Writer, v []string) { fwd01(w, v) }
func fwd01(w io.Writer, v []string) { fwd02(w, v) }
func fwd02(w io.Writer, v []string) { fwd03(w, v) }
func fwd03(w io.Writer, v []string) { fwd04(w, v) }
func fwd04(w io.Writer, v []string) { fwd05(w, v) }
func fwd05(w io.Writer, v []string) { fwd06(w, v) }
func fwd06(w io.Writer, v []string) { fwd07(w, v) }
func fwd07(w io.Writer, v []string) { fwd08(w, v) }
func fwd08(w io.Writer, v []string) { fwd09(w, v) }
func fwd09(w io.Writer, v []string) { fwd10(w, v) }
func fwd10(w io.Writer, v []string) { fwd11(w, v) }
func fwd11(w io.Writer, v []string) { fwd12(w, v) }
func fwd12(w io.Writer, v []string) { fwd13(w, v) }
func fwd13(w io.Writer, v []string) { fwd14(w, v) }
func fwd14(w io.Writer, v []string) { fwd15(w, v) }
func fwd15(w io.Writer, v []string) { fwd16(w, v) }
func fwd16(w io.Writer, v []string) { fwd17(w, v) }
func fwd17(w io.Writer, v []string) { fwd18(w, v) }
func fwd18(w io.Writer, v []string) { fwd19(w, v) }
func fwd19(w io.Writer, v []string) { fwd20(w, v) }
func fwd20(w io.Writer, v []string) { fwd21(w, v) }
func fwd21(w io.Writer, v []string) { fwd22(w, v) }
func fwd22(w io.Writer, v []string) { fwd23(w, v) }
func fwd23(w io.Writer, v []string) { json.NewEncoder(w).Encode(v) }
