package ixdisk

// The read side: one way to open an .orix file, and one way to load it.
// openIndexFile reads a file's metadata (Probe and the candidate scan
// stop there); loadFile takes the file's image, mapped or read, and
// decodes every block in place, for the exact load and the append base
// alike.

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
// footer), never the blocks. The trailer's fields are checked here,
// once, before its length sizes the second read: the end magic, and a
// length that holds at least the fixed footer and leaves room for the
// header, so a hostile one allocates no more than the file holds. The
// footer's own magic, its CRC and its directory are parseFooter's.
func readFooterAt(f io.ReaderAt, size int64) (*footer, error) {
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: %d bytes is below the minimum file size", ErrTruncated, size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading trailer: %v", ErrTruncated, err)
	}
	if string(tr[8:16]) != endMagic {
		return nil, fmt.Errorf("ixdisk: %w: end magic is %q", ErrTruncated, tr[8:16])
	}
	flen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if flen < footerFixed+trailerSize || flen > size-headerSize {
		return nil, fmt.Errorf("ixdisk: %w: footer claims %d bytes of a %d-byte file",
			ErrTruncated, flen, size)
	}
	buf := make([]byte, flen)
	if _, err := f.ReadAt(buf, size-flen); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading footer: %v", ErrTruncated, err)
	}
	return parseFooter(buf, size-flen)
}

// canMap reports whether a load may map its file: the platform has mmap
// and the host stores words little-endian, the file's order, so a
// mapping's sections can be aliased as they stand.
func canMap() bool { return mmapSupported && nativeLittleEndian }

// image returns the whole file, whose blocks the index's parts will
// alias: mapped when mapped is set and canMap, read into one buffer by
// one ReadAt otherwise. Either way decodeBlocks takes every block in
// place. A read buffer is 8-byte aligned, as the Go allocator aligns
// every allocation of 16 bytes or more and a file holds at least 64, so
// its sections alias as a mapping's do.
func (x *indexFile) image(mapped bool) (*Mapping, error) {
	if x.size > math.MaxInt32*8 {
		return nil, fmt.Errorf("ixdisk: %w: file is %d bytes", ErrTruncated, x.size)
	}
	if mapped && canMap() {
		data, err := mmapFile(x.f, int(x.size))
		if err != nil {
			return nil, fmt.Errorf("ixdisk: mmap %s: %w", x.f.Name(), err)
		}
		return &Mapping{data: data, mapped: true}, nil
	}
	data := make([]byte, x.size)
	if _, err := x.f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading %d bytes: %v", ErrTruncated, x.size, err)
	}
	return &Mapping{data: data}, nil
}

// decodeBlocks validates each directory entry's block out of the file's
// image and takes it in place.
func decodeBlocks(image []byte, dir []dirEntry) ([]index.BlockParts, error) {
	blocks := make([]index.BlockParts, len(dir))
	for i, e := range dir {
		bp, err := decodeBlock(image[e.offset:e.offset+e.length], e)
		if err != nil {
			return nil, err
		}
		blocks[i] = bp
	}
	return blocks, nil
}

// loadFile is the one load of a stored index. It opens path, checks that
// the file records exactly bank b (exact) or a strict prefix of it (an
// append base; checked afresh, whatever a candidate scan read), decodes
// every block in place out of the file's image, builds one block over
// the sequences b has beyond the file, and takes them all as the parts
// of b's index (index.FromBlocks). The parts alias the returned Mapping,
// which the caller keeps as long as the index lives. The suffix block
// (nil on an exact load) and the footer are for persistAppend.
func loadFile(path string, b *bank.Bank, opts index.Options, mapped, exact bool) (*index.Index, *Mapping, *index.BlockParts, *footer, error) {
	key := opts.Key()
	x, err := openIndexFile(path, &key)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer x.f.Close()
	k := b.NumSeqs()
	if exact {
		err = x.ftr.checkExactBank(b)
	} else {
		k, err = x.ftr.prefixOf(b)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m, err := x.image(mapped)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	blocks, err := decodeBlocks(m.data, x.ftr.dir)
	var suffix *index.BlockParts
	if err == nil && k < b.NumSeqs() {
		var bp index.BlockParts
		bp, err = index.BuildBlock(b, opts, k, b.NumSeqs())
		suffix, blocks = &bp, append(blocks, bp)
	}
	var ix *index.Index
	if err == nil {
		ix, err = index.FromBlocks(b, opts, blocks)
	}
	if err != nil {
		m.Close()
		return nil, nil, nil, nil, err
	}
	return ix, m, suffix, x.ftr, nil
}

// Mapping is the image a loaded index's parts alias: the file mapped,
// or read into one buffer. Close unmaps a mapping — after which every
// slice of the index it backed is invalid and must not be touched (see
// DESIGN.md §7 on the aliasing caveats) — and drops a read buffer, which
// the garbage collector frees once no part holds it, so closing a read
// image never invalidates its index.
//
// A mapped region stays valid while the store writes to its file,
// because no write rewrites a byte a part reads: appendBlockAt writes
// at the old footer's offset, past every block, and only extends the
// file; Save replaces a file by renaming a new one over it; the GC only
// unlinks; and an index reads its blocks through the mapping, never the
// footer (TestMappedIndexSurvivesItsAppend).
type Mapping struct {
	data   []byte
	mapped bool
	once   sync.Once
	err    error
}

// Close unmaps a mapped image and drops a read one. Safe to call more
// than once.
func (m *Mapping) Close() error {
	m.once.Do(func() {
		if m.mapped {
			m.err = munmap(m.data)
		}
		m.data, m.mapped = nil, false
	})
	return m.err
}

// Mapped reports whether the image is a live mapping of the file (as
// opposed to a read buffer, or closed).
func (m *Mapping) Mapped() bool { return m.mapped }
