// Package fixture seeds the untrusted-byte paths the untrustedix
// analyzer must catch: bytes read from disk flowing into slice bounds,
// make sizes, and ReadAt offsets without a declared validator — across
// function boundaries, not just inside one body.
package fixture

import "os"

// readLen hand-parses a little-endian length out of the header: the
// result is as hostile as the bytes it came from.
func readLen(buf []byte) int {
	return int(buf[0]) | int(buf[1])<<8
}

// load is the interprocedural pair: the source (os.ReadFile) is here,
// the sink (the slice bound) is in body below. The tainted length
// crosses the call unvalidated.
func load(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := readLen(buf)
	return body(buf, n), nil // want `untrusted bytes reach a slice bound`
}

// body slices the frame by a caller-supplied length.
func body(buf []byte, n int) []byte {
	return buf[:n]
}

// alloc sizes an allocation straight from a header byte.
func alloc(path string) []byte {
	buf, _ := os.ReadFile(path)
	n := int(buf[2])
	return make([]byte, n) // want `untrusted bytes reach a make size`
}

// seek turns an untrusted offset into a file position.
func seek(f *os.File) ([]byte, error) {
	hdr := make([]byte, 16)
	if _, err := f.Read(hdr); err != nil {
		return nil, err
	}
	off := int64(hdr[0]) | int64(hdr[1])<<8
	out := make([]byte, 32)
	if _, err := f.ReadAt(out, off); err != nil { // want `untrusted bytes reach a ReadAt offset`
		return nil, err
	}
	return out, nil
}

// deepIndex feeds a header byte to a chain 24 calls deep; only the
// last link indexes with it.
func deepIndex(path string) byte {
	buf, _ := os.ReadFile(path)
	return at00(buf, int(buf[0])) // want `untrusted bytes reach a slice index`
}

func at00(b []byte, i int) byte { return at01(b, i) }
func at01(b []byte, i int) byte { return at02(b, i) }
func at02(b []byte, i int) byte { return at03(b, i) }
func at03(b []byte, i int) byte { return at04(b, i) }
func at04(b []byte, i int) byte { return at05(b, i) }
func at05(b []byte, i int) byte { return at06(b, i) }
func at06(b []byte, i int) byte { return at07(b, i) }
func at07(b []byte, i int) byte { return at08(b, i) }
func at08(b []byte, i int) byte { return at09(b, i) }
func at09(b []byte, i int) byte { return at10(b, i) }
func at10(b []byte, i int) byte { return at11(b, i) }
func at11(b []byte, i int) byte { return at12(b, i) }
func at12(b []byte, i int) byte { return at13(b, i) }
func at13(b []byte, i int) byte { return at14(b, i) }
func at14(b []byte, i int) byte { return at15(b, i) }
func at15(b []byte, i int) byte { return at16(b, i) }
func at16(b []byte, i int) byte { return at17(b, i) }
func at17(b []byte, i int) byte { return at18(b, i) }
func at18(b []byte, i int) byte { return at19(b, i) }
func at19(b []byte, i int) byte { return at20(b, i) }
func at20(b []byte, i int) byte { return at21(b, i) }
func at21(b []byte, i int) byte { return at22(b, i) }
func at22(b []byte, i int) byte { return at23(b, i) }
func at23(b []byte, i int) byte { return b[i] }
