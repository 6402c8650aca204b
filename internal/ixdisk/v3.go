package ixdisk

// The .orix codec: block-structured index files, format version 4 —
// the only version this package reads or writes. The framing (header,
// blocks, footer — the "V3" of the identifiers below) dates from
// version 3; version 4 is version 3 minus the three per-occurrence
// sidecar sections, so a block stores positions only.
//
// # File layout
//
//	header (48 bytes)   magic, version, header size, options key, CRC
//	block+              CSR slices over runs of sequences, 8-byte aligned
//	footer              bank identity, per-sequence checksums, block
//	                    directory, CRC, self-locating trailer
//
// A fresh save writes one block, the built index (index.Index.Block);
// every further block was written by an append. Each block is a
// self-contained index.BlockParts over one contiguous sequence range: a
// 64-byte block header, the three 4-byte-element
// sections (Codes, Counts, Pos), a CRC-32C over header + sections, and
// zero padding to an 8-byte boundary — so every section is 4-byte
// aligned from any page-aligned base and LoadMapped can alias them. The
// (code, count) directory is the index's own sorted directory with
// counts where the index keeps offsets, so readers materialize nothing
// sized by 4^W — a prefix sum over the counts is the whole of it.
//
// The footer is the only part of the file that changes when a bank is
// appended to. It records the bank identity (content CRC, data length,
// sequence count), the full per-sequence checksum vector, and one
// 48-byte directory entry per block (offset, length, sequence and Data
// ranges, block CRC), followed by a footer CRC-32C and a 16-byte
// self-locating trailer (CRC, footer length, end magic) so readers and
// the probe find the directory from the file size alone.
//
// # Append
//
// Appending sequences to a stored bank writes exactly one new block:
// the new block overwrites the old footer region (block offsets never
// move — old block bytes are an unchanged prefix of the new file), a
// new footer follows it, and the file is renamed to the grown bank's
// key path. Total write cost is O(suffix) + footer, not O(bank). The
// write is deliberately not atomic — a torn append leaves a footer
// that fails its CRC or magic checks, the file is rejected, and the
// store heals by rebuild, the same no-fsync crash philosophy Save has
// always had. A crash between the footer write and the rename leaves a
// valid grown-bank file under the old key's name: a load of the old bank
// rejects it on identity and the store heals by rebuild, like any
// rejected file.
//
// A one-block file is the index — mapped, its sections are adopted in
// place — while one with more blocks is merged into fresh arrays on
// every load (index.FromBlocks).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/seed"
)

// Layout constants. The version bumps whenever the layout changes;
// readers reject anything they were not compiled for rather than guess.
const (
	magic         = "ORISIXDB"
	formatVersion = 4
	headerSizeV3  = 48
	blockMagic    = "ORIXBLK1"
	footerMagic   = "ORIXFTR1"
	endMagic      = "ORIXEND1"
	blockHdrSize  = 64
	dirEntSize    = 48
	footerFixed   = 32 // footerMagic + bankCRC + dataLen + numSeqs + numBlocks
	trailerSize   = 16 // footerCRC + footerLen + endMagic
)

// optionsHeader is the decoded v3 fixed header: the options key alone.
// Bank identity lives in the footer, which is rewritten on append —
// the header is written once and never touched again.
type optionsHeader struct {
	w           uint32
	sampleStep  uint32
	samplePhase uint32
	dustOn      uint32
	dustWindow  uint32
	dustThresh  uint64
}

func (h *optionsHeader) indexOptions() index.Options {
	o := index.Options{
		W:           int(h.w),
		SampleStep:  int(h.sampleStep),
		SamplePhase: int(h.samplePhase),
	}
	if h.dustOn != 0 {
		o.Dust = dust.New(int(h.dustWindow), math.Float64frombits(h.dustThresh))
	}
	return o
}

// checkOptionsKey verifies the recorded options against the requesting
// ones through the same projection the in-memory cache uses.
//
//scorislint:validator
func (h *optionsHeader) checkOptionsKey(opts index.Options) error {
	if !ixcache.SameKey(h.indexOptions(), opts) {
		o := opts.Normalized()
		return fmt.Errorf("ixdisk: %w: file built with W=%d step=%d/%d dust=%v, "+
			"requested W=%d step=%d/%d dust=%v",
			ErrKeyMismatch, h.w, h.sampleStep, h.samplePhase, h.dustOn != 0,
			o.W, o.SampleStep, o.SamplePhase, o.Dust != nil)
	}
	return nil
}

// encodeHeaderV3 serializes the fixed header for opts.
func encodeHeaderV3(opts index.Options) []byte {
	o := opts.Normalized()
	hdr := make([]byte, headerSizeV3)
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], headerSizeV3)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(o.W))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(o.SampleStep))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(o.SamplePhase))
	var dustOn, dw uint32
	var dt uint64
	if o.Dust != nil {
		dustOn = 1
		dw = uint32(o.Dust.Window)
		dt = math.Float64bits(o.Dust.Threshold)
	}
	binary.LittleEndian.PutUint32(hdr[28:], dustOn)
	binary.LittleEndian.PutUint32(hdr[32:], dw)
	binary.LittleEndian.PutUint64(hdr[36:], dt)
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(hdr[:44], crc32Table))
	return hdr
}

// decodeHeaderV3 parses and checks the fixed header, and is the single
// version gate: a file of any other format version is rejected here
// with ErrVersion before anything else in it is interpreted. The header
// CRC makes the options key self-validating — a flipped dust bit cannot
// silently serve an index built under different options.
//
//scorislint:validator
func decodeHeaderV3(buf []byte) (*optionsHeader, error) {
	if len(buf) < headerSizeV3 {
		return nil, fmt.Errorf("ixdisk: %w: %d bytes is below the %d-byte v3 header",
			ErrTruncated, len(buf), headerSizeV3)
	}
	if string(buf[0:8]) != magic {
		return nil, fmt.Errorf("ixdisk: %w: got %q", ErrBadMagic, buf[0:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != formatVersion {
		return nil, fmt.Errorf("ixdisk: %w: file is version %d, reader supports %d", ErrVersion, v, formatVersion)
	}
	if hs := binary.LittleEndian.Uint32(buf[12:]); hs != headerSizeV3 {
		return nil, fmt.Errorf("ixdisk: %w: v3 header size %d, want %d", ErrVersion, hs, headerSizeV3)
	}
	if want := binary.LittleEndian.Uint32(buf[44:]); crc32.Checksum(buf[:44], crc32Table) != want {
		return nil, fmt.Errorf("ixdisk: %w: v3 header CRC mismatch", ErrChecksum)
	}
	return &optionsHeader{
		w:           binary.LittleEndian.Uint32(buf[16:]),
		sampleStep:  binary.LittleEndian.Uint32(buf[20:]),
		samplePhase: binary.LittleEndian.Uint32(buf[24:]),
		dustOn:      binary.LittleEndian.Uint32(buf[28:]),
		dustWindow:  binary.LittleEndian.Uint32(buf[32:]),
		dustThresh:  binary.LittleEndian.Uint64(buf[36:]),
	}, nil
}

// dirEntry is one footer directory row: where a block lives and what
// it covers, plus its CRC so a reader can validate a block it mapped
// without trusting the block's own trailing copy.
type dirEntry struct {
	offset, length uint64
	seqLo, seqHi   uint32
	dataLo, dataHi uint64
	crc            uint32
}

// footerV3 is the decoded footer: the bank identity and the block
// directory — everything the probe and the append need.
type footerV3 struct {
	bankCRC uint64
	dataLen uint64
	numSeqs uint32
	seqSums []byte // raw little-endian u64 vector, 8*numSeqs bytes
	dir     []dirEntry
	start   int64 // file offset the footer begins at
}

func (f *footerV3) seqSum(i int) uint64 {
	return binary.LittleEndian.Uint64(f.seqSums[8*i:])
}

// encodeFooterV3 serializes the footer (trailer included) for a bank
// identity and block directory.
func encodeFooterV3(bankCRC uint64, dataLen uint64, seqSums []uint64, dir []dirEntry) []byte {
	flen := footerFixed + 8*len(seqSums) + dirEntSize*len(dir) + trailerSize
	f := make([]byte, flen)
	copy(f[0:8], footerMagic)
	binary.LittleEndian.PutUint64(f[8:], bankCRC)
	binary.LittleEndian.PutUint64(f[16:], dataLen)
	binary.LittleEndian.PutUint32(f[24:], uint32(len(seqSums)))
	binary.LittleEndian.PutUint32(f[28:], uint32(len(dir)))
	off := footerFixed
	for _, s := range seqSums {
		binary.LittleEndian.PutUint64(f[off:], s)
		off += 8
	}
	for _, e := range dir {
		binary.LittleEndian.PutUint64(f[off+0:], e.offset)
		binary.LittleEndian.PutUint64(f[off+8:], e.length)
		binary.LittleEndian.PutUint32(f[off+16:], e.seqLo)
		binary.LittleEndian.PutUint32(f[off+20:], e.seqHi)
		binary.LittleEndian.PutUint64(f[off+24:], e.dataLo)
		binary.LittleEndian.PutUint64(f[off+32:], e.dataHi)
		binary.LittleEndian.PutUint32(f[off+40:], e.crc)
		off += dirEntSize
	}
	binary.LittleEndian.PutUint32(f[off:], crc32.Checksum(f[:off], crc32Table))
	binary.LittleEndian.PutUint32(f[off+4:], uint32(flen))
	copy(f[off+8:], endMagic)
	return f
}

// parseFooterV3 decodes and validates the footer given the file's
// trailing bytes (tail must reach back to at least the footer start;
// fileSize locates offsets). Beyond framing and CRC it enforces the
// structural directory invariants every reader depends on: blocks
// tile the sequence and Data spaces contiguously in ascending order,
// are laid out back-to-back from the header to the footer, and each is
// large enough for its own header. Hostile directories — overlapping
// ranges, gaps, a truncated last block — are rejected here, before any
// block byte is touched.
//
//scorislint:validator
func parseFooterV3(tail []byte, fileSize int64) (*footerV3, error) {
	if len(tail) < trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: %d bytes is below the %d-byte v3 trailer",
			ErrTruncated, len(tail), trailerSize)
	}
	tr := tail[len(tail)-trailerSize:]
	if string(tr[8:16]) != endMagic {
		return nil, fmt.Errorf("ixdisk: %w: v3 end magic is %q", ErrTruncated, tr[8:16])
	}
	flen := int64(binary.LittleEndian.Uint32(tr[4:8]))
	if flen < footerFixed+trailerSize || flen > int64(len(tail)) || fileSize-flen < headerSizeV3 {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer claims %d bytes of a %d-byte file",
			ErrTruncated, flen, fileSize)
	}
	f := tail[int64(len(tail))-flen:]
	if string(f[0:8]) != footerMagic {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer magic is %q", ErrTruncated, f[0:8])
	}
	want := binary.LittleEndian.Uint32(f[flen-trailerSize:])
	if got := crc32.Checksum(f[:flen-trailerSize], crc32Table); got != want {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer computed %08x, file records %08x",
			ErrChecksum, got, want)
	}
	ftr := &footerV3{
		bankCRC: binary.LittleEndian.Uint64(f[8:]),
		dataLen: binary.LittleEndian.Uint64(f[16:]),
		numSeqs: binary.LittleEndian.Uint32(f[24:]),
		start:   fileSize - flen,
	}
	numBlocks := binary.LittleEndian.Uint32(f[28:])
	if flen != int64(footerFixed)+8*int64(ftr.numSeqs)+dirEntSize*int64(numBlocks)+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer is %d bytes for %d sequences and %d blocks",
			ErrTruncated, flen, ftr.numSeqs, numBlocks)
	}
	if numBlocks == 0 || ftr.numSeqs == 0 {
		return nil, fmt.Errorf("ixdisk: %w: v3 footer records %d blocks over %d sequences",
			ErrTruncated, numBlocks, ftr.numSeqs)
	}
	ftr.seqSums = f[footerFixed : footerFixed+8*int(ftr.numSeqs)]
	off := footerFixed + 8*int(ftr.numSeqs)
	ftr.dir = make([]dirEntry, numBlocks)
	for i := range ftr.dir {
		e := &ftr.dir[i]
		e.offset = binary.LittleEndian.Uint64(f[off+0:])
		e.length = binary.LittleEndian.Uint64(f[off+8:])
		e.seqLo = binary.LittleEndian.Uint32(f[off+16:])
		e.seqHi = binary.LittleEndian.Uint32(f[off+20:])
		e.dataLo = binary.LittleEndian.Uint64(f[off+24:])
		e.dataHi = binary.LittleEndian.Uint64(f[off+32:])
		e.crc = binary.LittleEndian.Uint32(f[off+40:])
		off += dirEntSize
	}
	// Directory invariants: contiguous tilings, back-to-back layout.
	wantOff := uint64(headerSizeV3)
	var wantSeq uint32
	wantData := ftr.dir[0].dataLo
	for i, e := range ftr.dir {
		if e.offset != wantOff || e.length < blockHdrSize+8 || e.length%8 != 0 {
			return nil, fmt.Errorf("ixdisk: %w: v3 block %d at offset %d/length %d breaks the back-to-back layout",
				ErrTruncated, i, e.offset, e.length)
		}
		if e.seqLo != wantSeq || e.seqHi <= e.seqLo || e.seqHi > ftr.numSeqs {
			return nil, fmt.Errorf("ixdisk: %w: v3 block %d covers sequences [%d,%d), expected to start at %d",
				ErrTruncated, i, e.seqLo, e.seqHi, wantSeq)
		}
		if e.dataLo != wantData || e.dataHi < e.dataLo || e.dataHi > ftr.dataLen {
			return nil, fmt.Errorf("ixdisk: %w: v3 block %d covers Data [%d,%d), expected to start at %d",
				ErrTruncated, i, e.dataLo, e.dataHi, wantData)
		}
		wantOff += e.length
		wantSeq = e.seqHi
		wantData = e.dataHi
	}
	last := ftr.dir[len(ftr.dir)-1]
	if wantSeq != ftr.numSeqs || wantData != ftr.dataLen || int64(last.offset+last.length) != ftr.start {
		return nil, fmt.Errorf("ixdisk: %w: v3 directory covers %d/%d sequences, %d/%d bytes, blocks end at %d of %d",
			ErrTruncated, wantSeq, ftr.numSeqs, wantData, ftr.dataLen, last.offset+last.length, ftr.start)
	}
	return ftr, nil
}

// blockByteLen returns the padded on-disk length of a block with
// nCodes directory entries and nOcc occurrences.
func blockByteLen(nCodes, nOcc int) int {
	raw := blockHdrSize + 8*nCodes + 4*nOcc + 4 // header + sections + CRC
	return (raw + 7) &^ 7
}

// encodeBlock streams one block to w and returns its padded length and
// CRC (over header + sections) for the footer directory.
func encodeBlock(w io.Writer, bp *index.BlockParts) (length int, crc uint32, err error) {
	hdr := make([]byte, blockHdrSize)
	copy(hdr[0:8], blockMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(bp.SeqLo))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(bp.SeqHi))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(bp.DataLo))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(bp.DataHi))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(bp.Pos)))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(bp.Codes)))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(bp.MaskedOut))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(bp.SampledOut))

	sum := crc32.New(crc32Table)
	mw := io.MultiWriter(w, sum)
	if _, err := mw.Write(hdr); err != nil {
		return 0, 0, err
	}
	if err := writeWords(mw, bp.Codes); err != nil {
		return 0, 0, err
	}
	if err := writeWords(mw, bp.Counts); err != nil {
		return 0, 0, err
	}
	if err := writeWords(mw, bp.Pos); err != nil {
		return 0, 0, err
	}
	crc = sum.Sum32()
	length = blockByteLen(len(bp.Codes), len(bp.Pos))
	raw := blockHdrSize + 8*len(bp.Codes) + 4*len(bp.Pos)
	tail := make([]byte, length-raw)
	binary.LittleEndian.PutUint32(tail, crc)
	if _, err := w.Write(tail); err != nil {
		return 0, 0, err
	}
	return length, crc, nil
}

// decodeBlock validates one block's bytes against its directory entry
// and returns its parts, aliasing buf when alias is set (the mmap route)
// and copying otherwise.
//
//scorislint:validator
func decodeBlock(buf []byte, ent dirEntry, alias bool) (index.BlockParts, error) {
	var bp index.BlockParts
	if uint64(len(buf)) != ent.length {
		return bp, fmt.Errorf("ixdisk: %w: block has %d bytes, directory records %d",
			ErrTruncated, len(buf), ent.length)
	}
	if string(buf[0:8]) != blockMagic {
		return bp, fmt.Errorf("ixdisk: %w: block magic is %q", ErrTruncated, buf[0:8])
	}
	nOcc := binary.LittleEndian.Uint64(buf[32:])
	nCodes := binary.LittleEndian.Uint32(buf[40:])
	if nOcc > math.MaxInt32 || nCodes > math.MaxInt32 {
		return bp, fmt.Errorf("ixdisk: %w: block claims %d occurrences, %d codes", ErrTruncated, nOcc, nCodes)
	}
	raw := blockHdrSize + 8*int(nCodes) + 4*int(nOcc)
	if blockByteLen(int(nCodes), int(nOcc)) != int(ent.length) {
		return bp, fmt.Errorf("ixdisk: %w: block sections imply %d bytes, directory records %d",
			ErrTruncated, blockByteLen(int(nCodes), int(nOcc)), ent.length)
	}
	crc := crc32.Checksum(buf[:raw], crc32Table)
	if rec := binary.LittleEndian.Uint32(buf[raw:]); crc != rec || crc != ent.crc {
		return bp, fmt.Errorf("ixdisk: %w: block computed %08x, block records %08x, directory %08x",
			ErrChecksum, crc, rec, ent.crc)
	}
	if binary.LittleEndian.Uint32(buf[8:]) != ent.seqLo ||
		binary.LittleEndian.Uint32(buf[12:]) != ent.seqHi ||
		binary.LittleEndian.Uint64(buf[16:]) != ent.dataLo ||
		binary.LittleEndian.Uint64(buf[24:]) != ent.dataHi {
		return bp, fmt.Errorf("ixdisk: %w: block header ranges disagree with the footer directory", ErrKeyMismatch)
	}
	masked := binary.LittleEndian.Uint64(buf[48:])
	sampled := binary.LittleEndian.Uint64(buf[56:])
	if masked > math.MaxInt32 || sampled > math.MaxInt32 {
		return bp, fmt.Errorf("ixdisk: %w: block counters %d/%d", ErrTruncated, masked, sampled)
	}
	bp.SeqLo, bp.SeqHi = int(ent.seqLo), int(ent.seqHi)
	bp.DataLo, bp.DataHi = int(ent.dataLo), int(ent.dataHi)
	bp.MaskedOut, bp.SampledOut = int(masked), int(sampled)
	secs := buf[blockHdrSize:raw]
	c, n := int(nCodes), int(nOcc)
	cut := func(elems int) []byte {
		s := secs[:4*elems]
		secs = secs[4*elems:]
		return s
	}
	if alias {
		bp.Codes = aliasWords[seed.Code](cut(c))
		bp.Counts = aliasWords[int32](cut(c))
		bp.Pos = aliasWords[int32](cut(n))
	} else {
		bp.Codes = decodeWords[seed.Code](cut(c))
		bp.Counts = decodeWords[int32](cut(c))
		bp.Pos = decodeWords[int32](cut(n))
	}
	return bp, nil
}

// writeBlocksTo streams header + blocks + footer to a writer: the whole
// file for bank b, whose sequences the blocks tile.
func writeBlocksTo(w io.Writer, b *bank.Bank, opts index.Options, blocks []index.BlockParts) error {
	if _, err := w.Write(encodeHeaderV3(opts)); err != nil {
		return err
	}
	dir := make([]dirEntry, len(blocks))
	off := uint64(headerSizeV3)
	for i := range blocks {
		bp := &blocks[i]
		length, crc, err := encodeBlock(w, bp)
		if err != nil {
			return err
		}
		dir[i] = dirEntry{
			offset: off, length: uint64(length),
			seqLo: uint32(bp.SeqLo), seqHi: uint32(bp.SeqHi),
			dataLo: uint64(bp.DataLo), dataHi: uint64(bp.DataHi),
			crc: crc,
		}
		off += uint64(length)
	}
	_, err := w.Write(encodeFooterV3(BankChecksum(b), uint64(len(b.Data)), b.SeqChecksums(), dir))
	return err
}

// Save writes p's index to path, atomically: the bytes go to a temp
// file in the same directory which is renamed over path only after a
// complete write, so a concurrent reader (or a crashed writer) can never
// observe a half-written file under the final name. There is no fsync —
// a torn file after power loss is caught by the checksums and rebuilt,
// the store-heals-itself property.
//
// A saved index is the built index: one block over the whole bank,
// streamed from the index's own Codes and Pos with the differences of
// its Offsets between them — nothing is cut, regrouped or copied.
func Save(path string, p *ixcache.Prepared) error {
	if p == nil || p.Bank == nil || p.Ix == nil || p.Ix.Bank != p.Bank {
		return errors.New("ixdisk: Save: inconsistent prepared value")
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return fmt.Errorf("ixdisk: Save: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 256<<10)
	err = writeBlocksTo(bw, p.Bank, p.Ix.Options(), []index.BlockParts{p.Ix.Block()})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ixdisk: Save: %w", err)
	}
	return nil
}

// checkExactBank verifies the footer identity is exactly bank b,
// per-sequence checksums included.
//
//scorislint:validator
func (f *footerV3) checkExactBank(b *bank.Bank) error {
	if f.dataLen != uint64(len(b.Data)) || f.numSeqs != uint32(b.NumSeqs()) ||
		f.bankCRC != BankChecksum(b) {
		return fmt.Errorf("ixdisk: %w: file indexes a different bank "+
			"(crc %016x/%d bytes/%d seqs, requested bank %q is %016x/%d/%d)",
			ErrKeyMismatch, f.bankCRC, f.dataLen, f.numSeqs,
			b.Name, BankChecksum(b), len(b.Data), b.NumSeqs())
	}
	sums := b.SeqChecksums()
	for i := range sums {
		if f.seqSum(i) != sums[i] {
			return fmt.Errorf("ixdisk: %w: per-sequence checksum %d disagrees with requested bank %q",
				ErrKeyMismatch, i, b.Name)
		}
	}
	return nil
}

// checkPrefixSums verifies the footer's first k per-sequence checksums
// match bank b's first k — the identity test of the append base, a
// stored file k sequences long under a larger b.
//
//scorislint:validator
func (f *footerV3) checkPrefixSums(b *bank.Bank, k int) error {
	if k < 1 || k > int(f.numSeqs) || k > b.NumSeqs() {
		return fmt.Errorf("ixdisk: %w: %d-sequence prefix of a %d-sequence file against bank %q (%d)",
			ErrKeyMismatch, k, f.numSeqs, b.Name, b.NumSeqs())
	}
	sums := b.SeqChecksums()
	for i := 0; i < k; i++ {
		if f.seqSum(i) != sums[i] {
			return fmt.Errorf("ixdisk: %w: per-sequence checksum %d disagrees with bank %q",
				ErrKeyMismatch, i, b.Name)
		}
	}
	return nil
}

// appendBlockAt writes suffix (plus a fresh footer for the grown bank
// identity) over the old footer region of the v3 file at path, then
// renames the file to newPath — the O(suffix) append. Old block bytes
// are never touched: the old file's header and blocks remain an
// unchanged byte prefix of the result. Not atomic by design; a torn
// write fails the footer checks and the store heals by rebuild.
func appendBlockAt(path, newPath string, grown *bank.Bank, suffix *index.BlockParts, oldFtr *footerV3) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var buf bytes.Buffer
	length, crc, err := encodeBlock(&buf, suffix)
	if err != nil {
		return err
	}
	dir := append(append([]dirEntry(nil), oldFtr.dir...), dirEntry{
		offset: uint64(oldFtr.start), length: uint64(length),
		seqLo: uint32(suffix.SeqLo), seqHi: uint32(suffix.SeqHi),
		dataLo: uint64(suffix.DataLo), dataHi: uint64(suffix.DataHi),
		crc: crc,
	})
	buf.Write(encodeFooterV3(BankChecksum(grown), uint64(len(grown.Data)), grown.SeqChecksums(), dir))
	if _, err := f.WriteAt(buf.Bytes(), oldFtr.start); err != nil {
		return err
	}
	if err := f.Truncate(oldFtr.start + int64(buf.Len())); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(path, newPath)
}
