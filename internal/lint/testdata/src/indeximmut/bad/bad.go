// Package fixture seeds every violation class the indeximmut analyzer
// must catch: field writes, element writes, growth, overwrite, and
// reorder of the mmap-aliasable CSR sections of an index's parts, plus
// rebinding an index to another bank.
package fixture

import (
	"sort"

	"repro/internal/bank"
	"repro/internal/index"
)

func mutateFields(ix *index.Index) {
	ix.Indexed = 0 // want `assignment to index\.Index\.Indexed`
	ix.MaskedOut++ // want `increment to index\.Index\.MaskedOut`
}

func mutatePartFields(ix *index.Index) {
	q := &ix.Parts()[0]
	q.Pos = nil           // want `assignment to index\.Part\.Pos`
	ix.Parts()[0].SeqHi++ // want `increment to index\.Part\.SeqHi`
}

func mutateSections(q *index.Part, ix *index.Index) {
	q.Pos[0] = 3                                // want `element write to index\.Part\.Pos`
	_ = append(q.Codes, 0)                      // want `append to index\.Part\.Codes`
	copy(q.Pos, []int32{1})                     // want `copy into index\.Part\.Pos`
	q.Bits[0] = 1                               // want `element write to index\.Part\.Bits`
	copy(q.Rank, []int32{1})                    // want `copy into index\.Part\.Rank`
	q.Top[1]--                                  // want `element write to index\.Part\.Top`
	ix.Parts()[1].Offsets[0] = 2                // want `element write to index\.Part\.Offsets`
	sort.Slice(q.Offsets, func(i, j int) bool { // want `sort\.Slice reorders index\.Part\.Offsets`
		return q.Offsets[i] < q.Offsets[j]
	})
}

func rebind(ix *index.Index, b *bank.Bank) {
	ix.Bank = b // want `assignment to index\.Index\.Bank`
}
