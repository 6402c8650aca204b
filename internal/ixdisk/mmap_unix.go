//go:build unix

package ixdisk

import (
	"os"
	"syscall"
)

// mmapSupported is half of canMap: where it is false, every load reads
// its file into one buffer and aliases that instead.
const mmapSupported = true

// mmapFile maps size bytes of f read-only and private: the index never
// writes, and MAP_PRIVATE keeps later file replacement (Save's atomic
// rename) from mutating live mappings — the old inode stays alive until
// munmap.
//
//scorislint:source
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_PRIVATE)
}

func munmap(b []byte) error { return syscall.Munmap(b) }
