package ixdisk

// The metadata probe: answering "what does this .orix file hold?"
// without reading its index payload. DirStore's prefix-candidate scan
// and the fleet router's backfill both need to decide compatibility
// cheaply. Probe reads the fixed header plus the footer (identity and
// block directory) — a few KiB regardless of index size.

import "repro/internal/index"

// BlockInfo describes one block of a file, from the footer
// directory: where it lives and which slice of the bank it covers.
type BlockInfo struct {
	// SeqLo, SeqHi bound the sequence range [SeqLo, SeqHi).
	SeqLo, SeqHi int
	// DataLo, DataHi bound the bank Data byte range the block indexes.
	DataLo, DataHi int64
	// Offset, Length locate the block's bytes in the file.
	Offset, Length int64
	// CRC is the block's CRC-32C as recorded in the directory.
	CRC uint32
}

// FileInfo is what Probe learns about an index file from its metadata
// alone: format version, the options and bank identity it was built
// for, and the block directory. The payload is not read and no
// payload checksum is verified — Probe answers "what does this file
// claim to hold?", and the loaders re-validate every claim before any
// byte is trusted.
type FileInfo struct {
	// Version is the format version — always 4, the only one Probe
	// accepts.
	Version int
	// Opts is the recorded index options key.
	Opts index.Options
	// BankCRC, DataLen, NumSeqs identify the recorded bank.
	BankCRC uint64
	DataLen int64
	NumSeqs int
	// SeqSums is the per-sequence checksum vector.
	SeqSums []uint64
	// Blocks is the footer directory in file order.
	Blocks []BlockInfo
	// PayloadEnd is the offset where index payload ends: the footer
	// start (everything before it is header + blocks, untouched by
	// appends).
	PayloadEnd int64
}

// Probe reads an index file's metadata without its payload: the fixed
// header plus the footer. It is the shared compatibility test for
// DirStore's prefix-candidate scan and the fleet's backfill — a few
// small reads per file, O(metadata) not O(index). Framing and metadata
// checksums are verified (header and footer carry their own CRCs); the
// payload is not, so a successful probe authorizes nothing — loaders
// re-validate in full. A file of any other format version fails with
// ErrVersion.
func Probe(path string) (*FileInfo, error) {
	x, err := openIndexFile(path, nil)
	if err != nil {
		return nil, err
	}
	defer x.f.Close()
	ftr := x.ftr
	info := &FileInfo{
		Version:    formatVersion,
		Opts:       x.hdr.indexOptions(),
		BankCRC:    ftr.bankCRC,
		DataLen:    int64(ftr.dataLen),
		NumSeqs:    int(ftr.numSeqs),
		SeqSums:    make([]uint64, ftr.numSeqs),
		Blocks:     make([]BlockInfo, len(ftr.dir)),
		PayloadEnd: ftr.start,
	}
	for i := range info.SeqSums {
		info.SeqSums[i] = ftr.seqSum(i)
	}
	for i, e := range ftr.dir {
		info.Blocks[i] = BlockInfo{
			SeqLo: int(e.seqLo), SeqHi: int(e.seqHi),
			DataLo: int64(e.dataLo), DataHi: int64(e.dataHi),
			Offset: int64(e.offset), Length: int64(e.length),
			CRC: e.crc,
		}
	}
	return info, nil
}
