// Package fixture holds idiomatic index use the indeximmut analyzer
// must stay silent on: reads, views, construction, and mutation of
// slices the caller owns.
package fixture

import (
	"sort"

	"repro/internal/bank"
	"repro/internal/index"
)

// Reads of fields and sections are always fine, on every part.
func reads(ix *index.Index) int32 {
	total := int32(ix.Indexed)
	for _, q := range ix.Parts() {
		total += q.Offsets[1] + q.Pos[0]
		for _, c := range q.Codes {
			total += int32(c)
		}
	}
	return total
}

// Construction by composite literal is construction, not mutation.
func construct(b *bank.Bank) (*index.Index, index.Part) {
	return &index.Index{Bank: b, W: 8}, index.Part{SeqHi: 1}
}

// Slices the caller owns may be grown and sorted freely.
func ownSlices(q *index.Part) []int32 {
	own := make([]int32, 0, len(q.Pos))
	own = append(own, q.Pos...)
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	copy(own, own)
	return own
}
