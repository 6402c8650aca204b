// Package fixture seeds the unlocked accesses the guardedby analyzer
// must catch: fields annotated `// guardedby: mu` touched without the
// mutex — directly, and through a call whose callee requires the lock.
package fixture

import "sync"

type registry struct {
	mu    sync.Mutex
	items map[string]int // guardedby: mu
}

var global registry

// raw reads the guarded map of a package-level registry with no lock
// anywhere on the path.
func raw(name string) int {
	return global.items[name] // want `guarded by`
}

// get requires the caller to hold r.mu — it touches r.items unlocked,
// so the requirement propagates to every call site.
func get(r *registry, name string) int {
	return r.items[name]
}

// lookup calls get without holding the lock: the violation surfaces
// here, at the call site.
func lookup() int {
	return get(&global, "x") // want `guarded by`
}

// badMutex names a field that is not a mutex: the annotation itself is
// the finding.
type badMutex struct {
	n     int
	items []int // guardedby: n // want `not a sync.Mutex`
}

type counter struct {
	mu sync.Mutex
	n  int // guardedby: mu
}

var hits counter

// bump reaches counter.n through a chain of 12 helpers, none of which
// locks. Callers sort before their callees, the order in which a
// requirement climbs slowest.
func bump() {
	h00(&hits) // want `call to h00 touches counter.n`
}

func h00(c *counter) { h01(c) }
func h01(c *counter) { h02(c) }
func h02(c *counter) { h03(c) }
func h03(c *counter) { h04(c) }
func h04(c *counter) { h05(c) }
func h05(c *counter) { h06(c) }
func h06(c *counter) { h07(c) }
func h07(c *counter) { h08(c) }
func h08(c *counter) { h09(c) }
func h09(c *counter) { h10(c) }
func h10(c *counter) { h11(c) }
func h11(c *counter) { c.n++ }
