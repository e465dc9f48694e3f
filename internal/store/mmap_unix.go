//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"

	"lsdgnn/internal/graph"
)

// mmapReader serves segment bytes straight from a read-only shared
// mapping: the unbudgeted fast path, where the OS page cache decides
// residency. view returns zero-copy windows so the decode loops never
// stage bytes.
type mmapReader struct {
	f    *os.File
	data []byte
}

// newMmapReader maps f read-only. On any mapping failure it degrades to
// plain pread — mmap is an optimization, never a requirement.
func newMmapReader(f *os.File, size int64) reader {
	if size <= 0 {
		return fileReader{f}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return fileReader{f}
	}
	return &mmapReader{f: f, data: data}
}

func (r *mmapReader) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(r.data)) {
		return fmt.Errorf("%w: mmap read [%d,+%d) outside %d-byte segment", ErrCorrupt, off, len(p), len(r.data))
	}
	copy(p, r.data[off:])
	return nil
}

func (r *mmapReader) view(off, n int64) []byte {
	if off < 0 || n < 0 || off+n > int64(len(r.data)) {
		return nil
	}
	return r.data[off : off+n]
}

func (r *mmapReader) words(dst []graph.NodeID, off int64) error {
	w := r.view(off, int64(len(dst))*8)
	if w == nil {
		return fmt.Errorf("%w: mmap read [%d,+%d) outside %d-byte segment", ErrCorrupt, off, len(dst)*8, len(r.data))
	}
	decodeWords(dst, w)
	return nil
}

func (r *mmapReader) lock()   {}
func (r *mmapReader) unlock() {}

func (r *mmapReader) Close() error {
	err := syscall.Munmap(r.data)
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
