// Package fixture seeds every violation class the indeximmut analyzer
// must catch: field writes, element writes, growth, overwrite, and
// reorder of the mmap-aliasable CSR sections, plus rebinding an index
// to another bank.
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

func mutateSections(ix *index.Index) {
	ix.Pos[0] = 3                                // want `element write to index\.Index\.Pos`
	_ = append(ix.Codes, 0)                      // want `append to index\.Index\.Codes`
	copy(ix.Pos, []int32{1})                     // want `copy into index\.Index\.Pos`
	ix.Bits[0] = 1                               // want `element write to index\.Index\.Bits`
	copy(ix.Rank, []int32{1})                    // want `copy into index\.Index\.Rank`
	sort.Slice(ix.Offsets, func(i, j int) bool { // want `sort\.Slice reorders index\.Index\.Offsets`
		return ix.Offsets[i] < ix.Offsets[j]
	})
}

func rebind(ix *index.Index, b *bank.Bank) {
	ix.Bank = b // want `assignment to index\.Index\.Bank`
}
