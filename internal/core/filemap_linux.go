//go:build linux

package core

import (
	"errors"
	"io"
	"math"
	"os"
	"sync/atomic"
	"syscall"
)

// fileMap is a read-only mapping of node 0's source file. Chunks served
// from it are views of the file's page-cache pages, so the vectored write
// to the successor copies them straight from the page cache: no pread into
// a pool buffer first. Only kernel writes touch the mapped bytes. A file
// that shrinks under the broadcast then costs the write an EFAULT rather
// than the process a SIGBUS.
type fileMap struct {
	data []byte
	file syscall.RawConn // for fstat, which tells whether the file still holds a range
	refs atomic.Int64    // the store's hold plus one per live view
}

// mapFile maps the first size bytes of ra when ra is a regular file that
// holds them. It returns nil for any other reader, for an empty file, and
// for a file whose length does not fit the mapping's int (over 2 GiB on a
// 32-bit system): those sources keep pread.
func mapFile(ra io.ReaderAt, size int64) *fileMap {
	f, ok := ra.(*os.File)
	if !ok || size <= 0 || size > math.MaxInt {
		return nil
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil
	}
	var data []byte
	if err := rc.Control(func(fd uintptr) {
		var st syscall.Stat_t
		if syscall.Fstat(int(fd), &st) != nil || st.Mode&syscall.S_IFMT != syscall.S_IFREG || st.Size < size {
			return
		}
		if b, err := syscall.Mmap(int(fd), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED); err == nil {
			_ = syscall.Madvise(b, syscall.MADV_SEQUENTIAL)
			data = b
		}
	}); err != nil || data == nil {
		return nil
	}
	m := &fileMap{data: data, file: rc}
	m.refs.Store(1)
	return m
}

// view returns a chunk of the n mapped bytes at off, holding the mapping
// until the chunk's last release.
func (m *fileMap) view(off, n uint64) *chunk {
	m.refs.Add(1)
	c := &chunk{src: m, buf: m.data[off : off+n : off+n], n: int(n)}
	c.refs.Store(1)
	return c
}

// release drops one hold; the last unmaps the file.
func (m *fileMap) release() {
	if m.refs.Add(-1) == 0 {
		_ = syscall.Munmap(m.data)
	}
}

// length returns the file's current size, 0 if it cannot be read.
func (m *fileMap) length() uint64 {
	var st syscall.Stat_t
	var serr error
	if err := m.file.Control(func(fd uintptr) { serr = syscall.Fstat(int(fd), &st) }); err != nil || serr != nil {
		return 0
	}
	return uint64(st.Size)
}

// isFault reports whether err is a write that faulted on its source
// memory: on a view, the file no longer holds the page.
func isFault(err error) bool { return errors.Is(err, syscall.EFAULT) }
