// Package fixture is the idiomatic counterpart: every access to a
// `// guardedby: mu` field happens under the mutex — locally, or in a
// *Locked helper whose callers hold the lock when they call it.
package fixture

import "sync"

type registry struct {
	mu    sync.Mutex
	items map[string]int // guardedby: mu
}

// get locks around its own access.
func get(r *registry, name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.items[name]
}

// getLocked touches the field unlocked — fine, as long as every call
// site holds the mutex.
func getLocked(r *registry, name string) int {
	return r.items[name]
}

// lookup holds the lock across the helper call.
func lookup(r *registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return getLocked(r, "x")
}

// fresh constructs a registry: values still private to the
// constructor need no lock.
func fresh() *registry {
	r := &registry{items: make(map[string]int)}
	r.items["seed"] = 1
	return r
}

// node is a list whose walk recurses through next. The requirement
// walk publishes (x.mu, then x.next.mu) must stay finite.
type node struct {
	mu   sync.Mutex
	n    int // guardedby: mu
	next *node
}

func (x *node) walk() int {
	if x.next == nil {
		return x.n
	}
	return x.n + x.next.walk()
}

// sum runs the walk under x.mu.
func (x *node) sum() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.walk()
}
