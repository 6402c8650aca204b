// Package fixture is the idiomatic counterpart: the same read-parse-use
// shapes, but every untrusted value passes a declared validator (or an
// explicit integer range check) before it indexes, sizes, or seeks.
package fixture

import (
	"fmt"
	"os"
)

// checkFrame is the declared validation boundary: it rejects any
// length that does not fit the buffer. Its body is exempt from sink
// checks, and calling it blesses its arguments.
//
//scorislint:validator
func checkFrame(buf []byte, n int) error {
	if n < 0 || n > len(buf) {
		return fmt.Errorf("frame length %d exceeds %d-byte buffer", n, len(buf))
	}
	return nil
}

// load parses a length and validates it before slicing.
func load(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := int(buf[0]) | int(buf[1])<<8
	if err := checkFrame(buf, n); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// guarded shows the integer escape hatch: a range check whose failure
// branch returns clears the checked integer — but only the integer;
// nothing short of a validator clears a byte buffer.
func guarded(path string) ([]byte, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := int(buf[2])
	if n > len(buf) {
		return nil, fmt.Errorf("bad count %d", n)
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out, nil
}

// even and odd forward an index to each other before either uses it:
// the sink fact each publishes must stay finite, not grow a longer
// "via call to" text every time it goes round.
func even(b []byte, i, n int) byte {
	if n > 0 {
		return odd(b, i, n-1)
	}
	return b[i]
}

func odd(b []byte, i, n int) byte {
	return even(b, i, n-1)
}
