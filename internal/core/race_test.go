//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops Puts at random
// and an allocation gate that counts on the pool cannot hold.
const raceEnabled = true
