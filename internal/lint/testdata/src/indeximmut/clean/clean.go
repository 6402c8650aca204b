// Package fixture holds idiomatic index use the indeximmut analyzer
// must stay silent on: reads, views, construction, and mutation of
// slices the caller owns.
package fixture

import (
	"sort"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// Reads of fields and sections are always fine.
func reads(ix *index.Index) int32 {
	total := ix.Offsets[1] + ix.Pos[0]
	for _, c := range ix.Codes {
		total += int32(c)
	}
	return total + int32(ix.Indexed)
}

// Construction by composite literal is construction, not mutation.
func construct(b *bank.Bank) *ixcache.Prepared {
	return &ixcache.Prepared{Bank: b, Ix: index.Build(b, index.Options{W: 8})}
}

// Slices the caller owns may be grown and sorted freely.
func ownSlices(ix *index.Index) []int32 {
	own := make([]int32, 0, len(ix.Pos))
	own = append(own, ix.Pos...)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	copy(own, own)
	return own
}
