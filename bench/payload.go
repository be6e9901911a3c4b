package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payload is one generated source: the bytes, their length and CRC-32C
// (what every receiver's sink must reproduce).
type payload struct {
	data []byte
	crc  uint32
}

// newPayload fills size bytes from a splitmix64 stream seeded by seed: the
// same seed gives the same bytes, and generation runs at memory speed so
// set-up stays short.
func newPayload(size int64, seed uint64) *payload {
	p := make([]byte, size)
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], next())
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(p[i:], tail[:])
	}
	return &payload{data: p, crc: crc32.Checksum(p, castagnoli)}
}

func (p *payload) size() int64 { return int64(len(p.data)) }

// ReadAt gives the payload the full io.ReaderAt contract (a short read at
// the tail carries io.EOF), which core's file-backed source relies on.
func (p *payload) ReadAt(b []byte, off int64) (int, error) {
	if off >= int64(len(p.data)) {
		return 0, io.EOF
	}
	n := copy(b, p.data[off:])
	if n < len(b) {
		return n, io.EOF
	}
	return n, nil
}

// crcSink is a receiver's sink: a running CRC-32C and byte count, compared
// with the source after the broadcast. SHA-256 on 15 sinks would cost more
// than the broadcast; CRC-32C is hardware accelerated and stays a few
// percent of it (sink.write_busy_s_per_GiB measures that).
type crcSink struct {
	crc uint32
	n   int64
	// mark, when > 0, calls trip once as the byte count crosses it: the
	// tree-crash workload's seeded kill rides the victim's own sink, so
	// the untraced run needs no Trace hook.
	mark int64
	trip func()
	// flip > 0 corrupts the byte at that offset before hashing it (the
	// negative test's faulty sink).
	flip int64
}

func (s *crcSink) Write(b []byte) (int, error) {
	if s.flip > 0 && s.flip >= s.n && s.flip < s.n+int64(len(b)) {
		c := append([]byte(nil), b...)
		c[s.flip-s.n] ^= 0x01
		s.crc = crc32.Update(s.crc, castagnoli, c)
	} else {
		s.crc = crc32.Update(s.crc, castagnoli, b)
	}
	before := s.n
	s.n += int64(len(b))
	if s.mark > 0 && before < s.mark && s.n >= s.mark {
		s.trip()
	}
	return len(b), nil
}

// verify reports how the sink differs from the source, or nil.
func (s *crcSink) verify(p *payload) error {
	if s.n != p.size() {
		return fmt.Errorf("sink holds %d of %d bytes", s.n, p.size())
	}
	if s.crc != p.crc {
		return fmt.Errorf("sink CRC-32C %08x, source %08x", s.crc, p.crc)
	}
	return nil
}

// sessionIDs hands out the run's session IDs: seeded, and never zero
// (base is seed<<20, the count starts at 1).
type sessionIDs struct {
	base uint64
	n    atomic.Uint64
}

func (s *sessionIDs) next() uint64 { return s.base + s.n.Add(1) }
