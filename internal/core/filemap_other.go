//go:build !linux

package core

import "io"

// fileMap would map node 0's source file; elsewhere every file source is
// read by pread.
type fileMap struct{}

func mapFile(io.ReaderAt, int64) *fileMap { return nil }

func (m *fileMap) view(off, n uint64) *chunk { panic("kascade: no mapped source on this system") }
func (m *fileMap) release()                  {}
func (m *fileMap) length() uint64            { return 0 }

func isFault(error) bool { return false }
