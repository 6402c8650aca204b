package ixdisk

// The read side: one way to open an .orix file, and the exact load built
// on it by its two block routes (copying and mmap). (The append base,
// DirStore.extendV3, and Probe are the other two callers of the opener;
// the append base takes its blocks by whichever route its store uses.)

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/bank"
	"repro/internal/index"
	"repro/internal/ixcache"
)

// indexFile is an .orix file opened as far as its metadata: the header
// decoded (the version gate), its options key checked, the footer read
// and validated. No block byte has been touched yet. Every reader —
// Probe, the exact loads, the append base — starts here, so the ladder
// of checks exists exactly once.
type indexFile struct {
	f       *os.File
	size    int64
	hdr     *optionsHeader
	ftr     *footerV3
	workers int // the requester's Options.Workers: bounds validation like a build
}

// openIndexFile runs the metadata ladder on path: open, stat, read and
// decode the 48-byte header (decodeHeaderV3 rejects every other format
// version), check the recorded options against want, read the footer.
// A nil want skips the options check — Probe's case, which reports
// whatever the file records. The caller closes x.f.
func openIndexFile(path string, want *index.Options) (x *indexFile, err error) {
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
	hdr := make([]byte, headerSizeV3)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading the %d-byte header of a %d-byte file: %v",
			ErrTruncated, headerSizeV3, fi.Size(), err)
	}
	h, err := decodeHeaderV3(hdr)
	if err != nil {
		return nil, err
	}
	workers := 0
	if want != nil {
		if err := h.checkOptionsKey(*want); err != nil {
			return nil, err
		}
		workers = want.Workers
	}
	ftr, err := readFooterAt(f, fi.Size())
	if err != nil {
		return nil, err
	}
	return &indexFile{f: f, size: fi.Size(), hdr: h, ftr: ftr, workers: workers}, nil
}

// readFooterAt reads and parses just the footer of an open file — the
// last rung of openIndexFile: two small ReadAt calls (trailer, then
// footer), never the blocks. The trailer's length field only sizes the
// second read, so all it is held to here is the file's size (a hostile
// one allocates no more than that); the trailer's magic, the footer's
// real bounds and its CRC are parseFooterV3's to check, once.
func readFooterAt(f io.ReaderAt, size int64) (*footerV3, error) {
	if size < headerSizeV3+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: %d bytes is below the v3 minimum", ErrTruncated, size)
	}
	var tr [trailerSize]byte
	if _, err := f.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading v3 trailer: %v", ErrTruncated, err)
	}
	flen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if flen < trailerSize || flen > size {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer claims %d bytes of a %d-byte file",
			ErrTruncated, flen, size)
	}
	tail := make([]byte, flen)
	if _, err := f.ReadAt(tail, size-flen); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading v3 footer: %v", ErrTruncated, err)
	}
	return parseFooterV3(tail, size)
}

// readBlocks reads every block in one ReadAt — they are contiguous from
// the header to the footer, by the footer's back-to-back invariant — and
// decodes them into fresh arrays: the copying route.
func (x *indexFile) readBlocks() ([]index.BlockParts, error) {
	buf := make([]byte, x.ftr.start-headerSizeV3)
	if _, err := x.f.ReadAt(buf, headerSizeV3); err != nil {
		return nil, fmt.Errorf("ixdisk: %w: reading %d blocks: %v", ErrTruncated, len(x.ftr.dir), err)
	}
	return decodeBlocks(buf, headerSizeV3, x.ftr.dir, false)
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

// prepare assembles the decoded blocks into the index for (b, the
// file's options) through FromBlocks' structural pass. A single block's
// arrays become the index's own, so one that aliases a mapping stays
// zero-copy.
func (x *indexFile) prepare(b *bank.Bank, blocks []index.BlockParts) (*ixcache.Prepared, error) {
	opts := x.hdr.indexOptions()
	opts.Workers = x.workers
	ix, err := index.FromBlocks(b, opts, blocks)
	if err != nil {
		return nil, err
	}
	return &ixcache.Prepared{Bank: b, Ix: ix}, nil
}

// loadExact is the exact load — the file must record exactly bank b —
// by either block route. It reports how many blocks were decoded (the
// BlockLoads accounting). A single block's arrays become the index's
// own, so a mapped single-block file (every fresh save) stays aliased
// to the returned Mapping; several blocks are merged into arrays the
// index owns — one copy — and the mapping is dropped, so the returned
// Mapping is then non-mapped and callers need no layout logic.
func loadExact(path string, b *bank.Bank, opts index.Options, mapped bool) (*ixcache.Prepared, *Mapping, int, error) {
	x, err := openIndexFile(path, &opts)
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
	p, err := x.prepare(b, blocks)
	if err != nil {
		m.Close()
		return nil, nil, 0, err
	}
	if len(blocks) > 1 {
		m.Close()
		m = &Mapping{}
	}
	return p, m, len(blocks), nil
}

// Load reads, validates, and copies an index file into a fresh
// Prepared for bank b. It is the strict portable reader: every framing,
// checksum, structural, and key invariant is checked before any slice
// is handed to the engines, and the returned index owns its memory
// (nothing aliases the file).
func Load(path string, b *bank.Bank, opts index.Options) (*ixcache.Prepared, error) {
	p, _, _, err := loadExact(path, b, opts, false)
	return p, err
}

// Mapping owns the mmap'd region backing a LoadMapped index. Close
// releases it — after which every slice of the index it backed is
// invalid and must not be touched (see DESIGN.md §7 on the aliasing
// caveats). A no-op Mapping (from the fallback path) closes safely.
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
// opposed to the copying fallback).
func (m *Mapping) Mapped() bool { return m.data != nil }

// LoadMapped validates an index file exactly like Load but aliases the
// int32 sections directly over the mmap'd bytes — zero copy, zero
// allocation proportional to index size — so a cold process skips both
// the build and the copy. The returned Mapping must outlive every use
// of the index; pages fault in lazily on first touch (the up-front
// checksum pass does touch each page once, the price of strictness).
//
// On hosts where aliasing is impossible (no mmap, or big-endian byte
// order) it falls back to Load and returns a non-mapped Mapping, as it
// does for a multi-block file (one that has been appended to — see
// loadExact).
func LoadMapped(path string, b *bank.Bank, opts index.Options) (*ixcache.Prepared, *Mapping, error) {
	p, m, _, err := loadExact(path, b, opts, mmapSupported && nativeLittleEndian)
	return p, m, err
}
