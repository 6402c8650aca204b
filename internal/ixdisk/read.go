package ixdisk

// The read side: one way to open an .orix file, and the exact load built
// on it by its two block routes (copying and mmap). (The append base,
// DirStore.extend, its candidate scan and Probe are the other callers of
// the opener; the append base takes its blocks by whichever route its
// store uses.)

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/bank"
	"repro/internal/index"
)

// indexFile is an .orix file opened as far as its metadata: the header
// decoded (the version gate), its index key checked, the footer read
// and validated. No block byte has been touched yet. Every reader —
// Probe, the exact load, the append base and its candidate scan — starts
// here, so the ladder of checks exists exactly once.
type indexFile struct {
	f    *os.File
	size int64
	key  index.Key
	ftr  *footer
}

// openIndexFile runs the metadata ladder on path: open, stat, read and
// decode the 48-byte header (decodeHeader rejects every other format
// version), check the recorded key against want, read the footer. A
// nil want skips the key check — Probe's case, which reports whatever
// the file records. The caller closes x.f.
func openIndexFile(path string, want *index.Key) (x *indexFile, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading the %d-byte header of a %d-byte file: %v",
			ErrTruncated, headerSize, fi.Size(), err)
	}
	key, err := decodeHeader(hdr)
	if err != nil {
		return nil, err
	}
	if want != nil {
		if err := checkKey(key, *want); err != nil {
			return nil, err
		}
	}
	ftr, err := readFooterAt(f, fi.Size())
	if err != nil {
		return nil, err
	}
	return &indexFile{f: f, size: fi.Size(), key: key, ftr: ftr}, nil
}

// readFooterAt reads and parses just the footer of an open file — the
// last rung of openIndexFile: two small ReadAt calls (trailer, then
// footer), never the blocks. The trailer's length field only sizes the
// second read, so all it is held to here is the file's size (a hostile
// one allocates no more than that); the trailer's magic, the footer's
// real bounds and its CRC are parseFooter's to check, once.
func readFooterAt(f io.ReaderAt, size int64) (*footer, error) {
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: %d bytes is below the minimum file size", ErrTruncated, size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading trailer: %v", ErrTruncated, err)
	}
	flen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if flen < trailerSize || flen > size {
		return nil, fmt.Errorf("ixdisk: %w: footer claims %d bytes of a %d-byte file",
			ErrTruncated, flen, size)
	}
	tail := make([]byte, flen)
	if _, err := f.ReadAt(tail, size-flen); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading footer: %v", ErrTruncated, err)
	}
	return parseFooter(tail, size)
}

// readBlocks reads every block in one ReadAt — they are contiguous from
// the header to the footer, by the footer's back-to-back invariant — and
// decodes them into fresh arrays: the copying route.
func (x *indexFile) readBlocks() ([]index.BlockParts, error) {
	buf := make([]byte, x.ftr.start-headerSize)
	if _, err := x.f.ReadAt(buf, headerSize); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading %d blocks: %v", ErrTruncated, len(x.ftr.dir), err)
	}
	return decodeBlocks(buf, headerSize, x.ftr.dir, false)
}

// mapping maps the whole file when mapped is set — the zero-copy block
// route, taken by the mapped exact load and by the append base of a
// mapped store — and is the no-op Mapping otherwise. The caller closes
// it once nothing aliases it.
func (x *indexFile) mapping(mapped bool) (*Mapping, error) {
	if !mapped {
		return &Mapping{}, nil
	}
	if x.size > math.MaxInt32*8 {
		return nil, fmt.Errorf("ixdisk: %w: file is %d bytes", ErrTruncated, x.size)
	}
	data, err := mmapFile(x.f, int(x.size))
	if err != nil {
		return nil, fmt.Errorf("ixdisk: mmap %s: %w", x.f.Name(), err)
	}
	return &Mapping{data: data}, nil
}

// allBlocks returns every block of the file, each validated: in place
// out of m, which they then alias, when the file is mapped; read and
// copied otherwise.
func (x *indexFile) allBlocks(m *Mapping) ([]index.BlockParts, error) {
	if m.Mapped() {
		return decodeBlocks(m.data, 0, x.ftr.dir, true)
	}
	return x.readBlocks()
}

// decodeBlocks validates each directory entry's block out of buf, whose
// first byte sits at file offset base.
func decodeBlocks(buf []byte, base uint64, dir []dirEntry, alias bool) ([]index.BlockParts, error) {
	blocks := make([]index.BlockParts, len(dir))
	for i, e := range dir {
		bp, err := decodeBlock(buf[e.offset-base:e.offset-base+e.length], e, alias)
		if err != nil {
			return nil, err
		}
		blocks[i] = bp
	}
	return blocks, nil
}

// loadExact is the exact load — the file must record exactly bank b
// and opts' key — by either block route, with the blocks taken as the
// parts of b's index by index.FromBlocks. It reports how many blocks
// were decoded (the BlockLoads accounting). Every block's arrays become
// its part's own, however many blocks the file holds, so a mapped file
// stays aliased to the returned Mapping, which the caller keeps for as
// long as the index lives; a copying load's Mapping is the no-op one.
func loadExact(path string, b *bank.Bank, opts index.Options, mapped bool) (*index.Index, *Mapping, int, error) {
	key := opts.Key()
	x, err := openIndexFile(path, &key)
	if err != nil {
		return nil, nil, 0, err
	}
	defer x.f.Close()
	if err := x.ftr.checkExactBank(b); err != nil {
		return nil, nil, 0, err
	}
	m, err := x.mapping(mapped)
	if err != nil {
		return nil, nil, 0, err
	}
	blocks, err := x.allBlocks(m)
	if err != nil {
		m.Close()
		return nil, nil, 0, err
	}
	ix, err := index.FromBlocks(b, opts, blocks)
	if err != nil {
		m.Close()
		return nil, nil, 0, err
	}
	return ix, m, len(blocks), nil
}

// Mapping owns the mmap'd region backing a mapped load's index. Close
// releases it — after which every slice of the index it backed is
// invalid and must not be touched (see DESIGN.md §7 on the aliasing
// caveats). A no-op Mapping (a copying load's) closes safely.
//
// A mapped region stays valid while the store writes to its file,
// because no write rewrites a byte a part reads: appendBlockAt writes
// at the old footer's offset, past every block, and only extends the
// file; Save replaces a file by renaming a new one over it; the GC only
// unlinks; and an index reads its blocks through the mapping, never the
// footer (TestMappedIndexSurvivesItsAppend).
type Mapping struct {
	data []byte
	once sync.Once
	err  error
}

// Close unmaps the region. Safe to call more than once.
func (m *Mapping) Close() error {
	m.once.Do(func() {
		if m.data != nil {
			m.err = munmap(m.data)
			m.data = nil
		}
	})
	return m.err
}

// Mapped reports whether the load actually aliased an mmap'd file (as
// opposed to copying it).
func (m *Mapping) Mapped() bool { return m.data != nil }
