package ixdisk

// The .orix codec: block-structured index files, format version 5 —
// the only version this package reads or writes. The framing (header,
// blocks, footer) dates from version 3; version 4 dropped version 3's
// three per-occurrence sidecar sections, so a block stores positions
// only, and version 5 stores a block's directory as the index keeps it,
// offsets where version 4 stored counts.
//
// # File layout
//
//	header (48 bytes)   magic, version, header size, index key, CRC
//	block+              CSR slices over runs of sequences, 8-byte aligned
//	footer              bank identity, per-sequence checksums, block
//	                    directory, CRC, self-locating trailer
//
// A fresh save writes one block, the built index (index.Index.Blocks);
// every further block was written by an append, and a load takes each
// block as one part of the index. Each block is a
// self-contained index.BlockParts over one contiguous sequence range: a
// 64-byte block header, the three 4-byte-element sections (Codes[n],
// Offsets[n+1], Pos), a CRC-32C over header + sections, and zero
// padding to an 8-byte boundary — so every section is 4-byte aligned
// from any 8-byte-aligned image of the file, mapped or read, and a load
// aliases them in place. The sections are the index's own arrays: a
// block's offsets index its own Pos, so a file is the index as it
// stands, one part a block, and a reader derives nothing from it but, on
// a dense part, the bitmap.
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
// A file is the index: every block's sections are adopted in place,
// out of the file's image, as one part of it (index.FromBlocks),
// however many appends wrote them. No write rewrites a byte of a stored
// block, so a mapping stays valid while the store appends to its file
// (Mapping).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/bank"
	"repro/internal/dust"
	"repro/internal/index"
	"repro/internal/seed"
)

// Layout constants. The version bumps whenever the layout changes;
// readers reject anything they were not compiled for rather than guess.
const (
	magic         = "ORISIXDB"
	formatVersion = 5
	headerSize    = 48
	blockMagic    = "ORIXBLK1"
	footerMagic   = "ORIXFTR1"
	endMagic      = "ORIXEND1"
	blockHdrSize  = 64
	dirEntSize    = 48
	footerFixed   = 32 // footerMagic + bankCRC + dataLen + numSeqs + numBlocks
	trailerSize   = 16 // footerCRC + footerLen + endMagic
)

// keySize is the length of an index.Key as putKey writes it, in
// little-endian words: W, SampleStep, a reserved 0 (it held a sampling
// phase no index is built with any more), dust on/off, the dust window
// and the dust threshold's float64 bits. The last two date from settable
// filter parameters: they hold dust.Window and dust.Threshold with dust
// on, 0 with it off. The header holds one key (bytes 16–44) and so does
// the filename key DirStore hashes (DirStore.Path, bytes 20–48), so the
// layout is frozen twice over: a change would reject every stored file
// and rename it too.
const keySize = 28

// putKey writes k into dst[:keySize].
func putKey(dst []byte, k index.Key) {
	binary.LittleEndian.PutUint32(dst[0:], uint32(k.W))
	binary.LittleEndian.PutUint32(dst[4:], uint32(k.SampleStep))
	clear(dst[8:keySize]) // the reserved word, and dust off
	if k.Dust {
		binary.LittleEndian.PutUint32(dst[12:], 1)
		binary.LittleEndian.PutUint32(dst[16:], dust.Window)
		binary.LittleEndian.PutUint64(dst[20:], math.Float64bits(dust.Threshold))
	}
}

// getKey reads the key putKey wrote into src[:keySize], and refuses with
// ErrKeyMismatch bytes that are not putKey's bytes for that key.
func getKey(src []byte) (index.Key, error) {
	k := index.Key{
		W:          int(binary.LittleEndian.Uint32(src[0:])),
		SampleStep: int(binary.LittleEndian.Uint32(src[4:])),
		Dust:       binary.LittleEndian.Uint32(src[12:]) != 0,
	}
	var want [keySize]byte
	putKey(want[:], k)
	if !bytes.Equal(src[:keySize], want[:]) {
		return index.Key{}, fmt.Errorf("ixdisk: %w: key words %x are not the key of any index (W=%d step=%d dust=%v writes %x)",
			ErrKeyMismatch, src[:keySize], k.W, k.SampleStep, k.Dust, want)
	}
	return k, nil
}

// checkKey verifies the key a file records against the requesting one.
//
//scorislint:validator
func checkKey(got, want index.Key) error {
	if got != want {
		return fmt.Errorf("ixdisk: %w: file built with W=%d step=%d dust=%v, "+
			"requested W=%d step=%d dust=%v",
			ErrKeyMismatch, got.W, got.SampleStep, got.Dust,
			want.W, want.SampleStep, want.Dust)
	}
	return nil
}

// encodeHeader serializes the fixed header for an index key.
func encodeHeader(k index.Key) []byte {
	hdr := make([]byte, headerSize)
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], headerSize)
	putKey(hdr[16:], k)
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(hdr[:44], crc32Table))
	return hdr
}

// decodeHeader parses and checks the fixed header and returns the index
// key it records. It is the single version gate: a file of any other
// format version is rejected here with ErrVersion before anything else
// in it is interpreted. The header CRC makes the key self-validating —
// a flipped dust bit cannot silently serve an index built under
// different options.
//
//scorislint:validator
func decodeHeader(buf []byte) (index.Key, error) {
	if len(buf) < headerSize {
		return index.Key{}, fmt.Errorf("ixdisk: %w: %d bytes is below the %d-byte header",
			ErrTruncated, len(buf), headerSize)
	}
	if string(buf[0:8]) != magic {
		return index.Key{}, fmt.Errorf("ixdisk: %w: got %q", ErrBadMagic, buf[0:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != formatVersion {
		return index.Key{}, fmt.Errorf("ixdisk: %w: file is version %d, reader supports %d", ErrVersion, v, formatVersion)
	}
	if hs := binary.LittleEndian.Uint32(buf[12:]); hs != headerSize {
		return index.Key{}, fmt.Errorf("ixdisk: %w: header size %d, want %d", ErrVersion, hs, headerSize)
	}
	if want := binary.LittleEndian.Uint32(buf[44:]); crc32.Checksum(buf[:44], crc32Table) != want {
		return index.Key{}, fmt.Errorf("ixdisk: %w: header CRC mismatch", ErrChecksum)
	}
	return getKey(buf[16:])
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

// footer is the decoded footer: the bank identity and the block
// directory — everything the probe and the append need.
type footer struct {
	bankCRC uint64
	dataLen uint64
	numSeqs uint32
	seqSums []byte // raw little-endian u64 vector, 8*numSeqs bytes
	dir     []dirEntry
	start   int64 // file offset the footer begins at
}

func (f *footer) seqSum(i int) uint64 {
	return binary.LittleEndian.Uint64(f.seqSums[8*i:])
}

// encodeFooter serializes the footer (trailer included) for a bank
// identity and block directory.
func encodeFooter(bankCRC uint64, dataLen uint64, seqSums []uint64, dir []dirEntry) []byte {
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

// parseFooter decodes and validates the footer f, read from file
// offset start (readFooterAt has checked the trailer's end magic and
// length, which sized f). Beyond framing and CRC it enforces the
// structural directory invariants every reader depends on: blocks
// tile the sequence and Data spaces contiguously in ascending order,
// are laid out back-to-back from the header to the footer, and each is
// large enough for its own header. Hostile directories — overlapping
// ranges, gaps, a truncated last block — are rejected here, before any
// block byte is touched.
//
//scorislint:validator
func parseFooter(f []byte, start int64) (*footer, error) {
	flen := int64(len(f))
	if flen < footerFixed+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: a %d-byte footer is below the %d-byte minimum",
			ErrTruncated, flen, footerFixed+trailerSize)
	}
	if string(f[0:8]) != footerMagic {
		return nil, fmt.Errorf("ixdisk: %w: footer magic is %q", ErrTruncated, f[0:8])
	}
	want := binary.LittleEndian.Uint32(f[flen-trailerSize:])
	if got := crc32.Checksum(f[:flen-trailerSize], crc32Table); got != want {
		return nil, fmt.Errorf("ixdisk: %w: footer computed %08x, file records %08x",
			ErrChecksum, got, want)
	}
	ftr := &footer{
		bankCRC: binary.LittleEndian.Uint64(f[8:]),
		dataLen: binary.LittleEndian.Uint64(f[16:]),
		numSeqs: binary.LittleEndian.Uint32(f[24:]),
		start:   start,
	}
	numBlocks := binary.LittleEndian.Uint32(f[28:])
	if flen != int64(footerFixed)+8*int64(ftr.numSeqs)+dirEntSize*int64(numBlocks)+trailerSize {
		return nil, fmt.Errorf("ixdisk: %w: footer is %d bytes for %d sequences and %d blocks",
			ErrTruncated, flen, ftr.numSeqs, numBlocks)
	}
	if numBlocks == 0 || ftr.numSeqs == 0 {
		return nil, fmt.Errorf("ixdisk: %w: footer records %d blocks over %d sequences",
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
	wantOff := uint64(headerSize)
	var wantSeq uint32
	wantData := ftr.dir[0].dataLo
	for i, e := range ftr.dir {
		if e.offset != wantOff || e.length < blockHdrSize+8 || e.length%8 != 0 {
			return nil, fmt.Errorf("ixdisk: %w: block %d at offset %d/length %d breaks the back-to-back layout",
				ErrTruncated, i, e.offset, e.length)
		}
		if e.seqLo != wantSeq || e.seqHi <= e.seqLo || e.seqHi > ftr.numSeqs {
			return nil, fmt.Errorf("ixdisk: %w: block %d covers sequences [%d,%d), expected to start at %d",
				ErrTruncated, i, e.seqLo, e.seqHi, wantSeq)
		}
		if e.dataLo != wantData || e.dataHi < e.dataLo || e.dataHi > ftr.dataLen {
			return nil, fmt.Errorf("ixdisk: %w: block %d covers Data [%d,%d), expected to start at %d",
				ErrTruncated, i, e.dataLo, e.dataHi, wantData)
		}
		wantOff += e.length
		wantSeq = e.seqHi
		wantData = e.dataHi
	}
	last := ftr.dir[len(ftr.dir)-1]
	if wantSeq != ftr.numSeqs || wantData != ftr.dataLen || int64(last.offset+last.length) != ftr.start {
		return nil, fmt.Errorf("ixdisk: %w: directory covers %d/%d sequences, %d/%d bytes, blocks end at %d of %d",
			ErrTruncated, wantSeq, ftr.numSeqs, wantData, ftr.dataLen, last.offset+last.length, ftr.start)
	}
	return ftr, nil
}

// sectionsEnd returns the offset, from a block's start, at which the
// sections of a block with nCodes directory entries and nOcc occurrences
// end and its CRC begins.
func sectionsEnd(nCodes, nOcc int) int {
	return blockHdrSize + 4*nCodes + 4*(nCodes+1) + 4*nOcc
}

// blockByteLen returns the padded on-disk length of a block with
// nCodes directory entries and nOcc occurrences.
func blockByteLen(nCodes, nOcc int) int {
	return (sectionsEnd(nCodes, nOcc) + 4 + 7) &^ 7
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
	if err := writeWords(mw, bp.Offsets); err != nil {
		return 0, 0, err
	}
	if err := writeWords(mw, bp.Pos); err != nil {
		return 0, 0, err
	}
	crc = sum.Sum32()
	length = blockByteLen(len(bp.Codes), len(bp.Pos))
	tail := make([]byte, length-sectionsEnd(len(bp.Codes), len(bp.Pos)))
	binary.LittleEndian.PutUint32(tail, crc)
	if _, err := w.Write(tail); err != nil {
		return 0, 0, err
	}
	return length, crc, nil
}

// decodeBlock validates one block's bytes against its directory entry
// and returns its parts, which alias buf. On a big-endian host the
// sections' words are byte-swapped in place first, after the CRC check,
// so buf must then be writable: a read image, never a mapping.
//
//scorislint:validator
func decodeBlock(buf []byte, ent dirEntry) (index.BlockParts, error) {
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
	raw := sectionsEnd(int(nCodes), int(nOcc))
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
	if !nativeLittleEndian {
		swapWords(secs)
	}
	c := 4 * int(nCodes)
	bp.Codes = aliasWords[seed.Code](secs[:c])
	bp.Offsets = aliasWords[int32](secs[c : 2*c+4])
	bp.Pos = aliasWords[int32](secs[2*c+4:])
	return bp, nil
}

// writeBlocksTo streams header + blocks + footer to a writer: the whole
// file for bank b, whose sequences the blocks tile.
func writeBlocksTo(w io.Writer, b *bank.Bank, k index.Key, blocks []index.BlockParts) error {
	if _, err := w.Write(encodeHeader(k)); err != nil {
		return err
	}
	dir := make([]dirEntry, len(blocks))
	off := uint64(headerSize)
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
	_, err := w.Write(encodeFooter(b.Checksum(), uint64(len(b.Data)), b.SeqChecksums(), dir))
	return err
}

// Save writes ix to path, atomically: the bytes go to a temp
// file in the same directory which is renamed over path only after a
// complete write, so a concurrent reader (or a crashed writer) can never
// observe a half-written file under the final name. There is no fsync —
// a torn file after power loss is caught by the checksums and rebuilt,
// the store-heals-itself property.
//
// A saved index is the index as it stands: one block a part — one over
// the whole bank for a built index — each streamed from the part's own
// Codes, Offsets and Pos; nothing is cut, regrouped, converted or
// copied.
func Save(path string, ix *index.Index) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPattern)
	if err != nil {
		return fmt.Errorf("ixdisk: Save: %w", err)
	}
	bw := bufio.NewWriterSize(tmp, 256<<10)
	err = writeBlocksTo(bw, ix.Bank, ix.Options().Key(), ix.Blocks())
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
func (f *footer) checkExactBank(b *bank.Bank) error {
	if f.dataLen != uint64(len(b.Data)) || f.numSeqs != uint32(b.NumSeqs()) ||
		f.bankCRC != b.Checksum() {
		return fmt.Errorf("ixdisk: %w: file indexes a different bank "+
			"(crc %016x/%d bytes/%d seqs, requested bank %q is %016x/%d/%d)",
			ErrKeyMismatch, f.bankCRC, f.dataLen, f.numSeqs,
			b.Name, b.Checksum(), len(b.Data), b.NumSeqs())
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

// prefixOf is the identity test of an append base: it returns the
// number k of sequences the file records when they are a strict prefix
// of bank b — fewer than b's, the same Data length as b's first k, and
// each with b's checksum — and ErrKeyMismatch otherwise.
//
//scorislint:validator
func (f *footer) prefixOf(b *bank.Bank) (k int, err error) {
	k = int(f.numSeqs) // ≥ 1: parseFooter refuses an empty file
	if k >= b.NumSeqs() || f.dataLen != uint64(b.PrefixLen(k)) {
		return 0, fmt.Errorf("ixdisk: %w: stored file (%d sequences, %d bytes) is not a strict prefix of bank %q",
			ErrKeyMismatch, k, f.dataLen, b.Name)
	}
	sums := b.SeqChecksums()
	for i := 0; i < k; i++ {
		if f.seqSum(i) != sums[i] {
			return 0, fmt.Errorf("ixdisk: %w: per-sequence checksum %d disagrees with bank %q",
				ErrKeyMismatch, i, b.Name)
		}
	}
	return k, nil
}

// appendBlockAt writes suffix (plus a fresh footer for the grown bank
// identity) over the old footer region of the file at path, then
// renames the file to newPath — the O(suffix) append. Old block bytes
// are never touched: the old file's header and blocks remain an
// unchanged byte prefix of the result, and the file only grows (the new
// footer records more than the old), which is what lets an index keep
// the file's blocks mapped while it is appended to (Mapping). Not
// atomic by design; a torn write fails the footer checks and the store
// heals by rebuild.
func appendBlockAt(path, newPath string, grown *bank.Bank, suffix *index.BlockParts, oldFtr *footer) error {
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
	buf.Write(encodeFooter(grown.Checksum(), uint64(len(grown.Data)), grown.SeqChecksums(), dir))
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
