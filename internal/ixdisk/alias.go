package ixdisk

import "unsafe"

// nativeLittleEndian reports whether the host stores integers little-
// endian, the file's order: the precondition for aliasing a mapping's
// sections as they stand (canMap). Elsewhere decodeBlock swaps a read
// image's words first (swapWords). Checked once at init; a variable so
// tests can take the big-endian path.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aliasWords reinterprets a validated byte section, its words in host
// order, as a typed 4-byte-element slice with zero copying. The caller
// guarantees the section is 4-byte aligned (the format fixes every
// section offset to a multiple of 4 from the file's start, and an image
// starts 8-byte aligned). Over a mapping the resulting slice is
// read-only memory: writing through it faults, which the index
// immutability contract already forbids.
func aliasWords[T word](sec []byte) []T {
	if len(sec) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&sec[0])), len(sec)/4)
}

// swapWords reverses the bytes of each 4-byte word of sec in place: on a
// big-endian host it puts a validated section's little-endian words in
// host order before they are aliased.
func swapWords(sec []byte) {
	for i := 0; i+4 <= len(sec); i += 4 {
		sec[i], sec[i+1], sec[i+2], sec[i+3] = sec[i+3], sec[i+2], sec[i+1], sec[i]
	}
}
