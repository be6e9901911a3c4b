//go:build linux

package core

import (
	"io"
	"os"
	"syscall"
)

// fSetPipeSize and fGetPipeSize are fcntl's F_SETPIPE_SZ and F_GETPIPE_SZ
// (F_LINUX_SPECIFIC_BASE + 7 and + 8, the same on every Linux architecture).
const (
	fSetPipeSize = 1031
	fGetPipeSize = 1032
)

// spliceFNonblock is SPLICE_F_NONBLOCK, the same on every Linux
// architecture. splice(2) and tee(2) honour it on the pipe side whatever
// the pipe's own flags say.
const spliceFNonblock = 0x2

// maxStagePipe caps a stage pipe at the kernel's default pipe-max-size,
// the most an unprivileged process may ask for.
const maxStagePipe = 1 << 20

// sinkStage feeds a PipeSink by reference (see PipeSink). Only the
// goroutine that reads the upstream and ingests touches it, and Run closes
// it after that goroutine has ended.
//
// A relay's stage (fill, deliver) keeps a copy of each payload in the
// chunk its window needs. A leaf keeps no window, so its stage (take,
// flush) moves the whole payload from the socket into out and on into the
// sink without reading it at all.
type sinkStage struct {
	sink     io.Writer
	sinkConn syscall.RawConn // the sink pipe's write end
	pipeSize int             // capacity asked for each stage pipe
	room     int             // capacity out got, once open

	// in carries the bytes of one splice from the socket until they are
	// moved or teed into out (and, at a relay, read into the chunk); out
	// keeps the payload's staged prefix until it moves to the sink. Both
	// are [read, write] descriptor pairs, -1 while closed.
	in, out [2]int
	staged  int    // bytes at the front of the last payload held in out
	owner   *byte  // first byte of that payload's chunk (nil at a leaf)
	moved   uint64 // bytes delivered by reference so far
}

// newSinkStage returns a stage for sink, or nil when sink is not the
// non-blocking write end of a pipe and must be written by copy.
func newSinkStage(sink io.Writer, chunkSize int) *sinkStage {
	ps, ok := sink.(PipeSink)
	if !ok {
		return nil
	}
	rc, err := ps.SyscallConn()
	if err != nil {
		return nil
	}
	var st syscall.Stat_t
	var flags uintptr
	var serr error
	if err := rc.Control(func(fd uintptr) {
		if serr = syscall.Fstat(int(fd), &st); serr == nil {
			flags, _, _ = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
		}
	}); err != nil || serr != nil {
		return nil
	}
	// A blocking descriptor is not on the runtime's poller, which deliver
	// waits on while the pipe is full.
	if st.Mode&syscall.S_IFMT != syscall.S_IFIFO || flags&syscall.O_NONBLOCK == 0 {
		return nil
	}
	return &sinkStage{
		sink:     sink,
		sinkConn: rc,
		pipeSize: min(4*chunkSize, maxStagePipe),
		in:       [2]int{-1, -1},
		out:      [2]int{-1, -1},
	}
}

// fill reads the DATA payload p from w. When w's connection is a kernel
// socket, the bytes pass through the stage pipes on their way to p, and as
// many of them as out takes stay staged there for deliver. Bytes staged
// for an earlier chunk that never reached the sink are dropped first.
func (s *sinkStage) fill(w *wire, p []byte) error {
	if s == nil {
		return w.readFull(p)
	}
	s.drop()
	rc := s.socket(w)
	if rc == nil || len(p) == 0 {
		return w.readFull(p)
	}
	// The wire's read buffer may already hold the payload's first bytes;
	// they are staged by copy.
	off := 0
	if b := w.br.Buffered(); b > 0 {
		off, _ = w.br.Read(p[:min(b, len(p))])
		if n, err := syscall.Write(s.out[1], p[:off]); err == nil {
			s.staged = n
		}
	}
	for off < len(p) {
		n, err := s.spliceIn(rc, len(p)-off)
		if err != nil {
			s.reset()
			return err
		}
		if s.staged == off {
			// A full out ends the staged prefix; the rest is copied.
			if t, err := syscall.Tee(s.in[0], s.out[1], n, spliceFNonblock); err == nil {
				s.staged += int(t)
			}
		}
		if err := readPipe(s.in[0], p[off:off+n]); err != nil {
			s.reset()
			return err
		}
		off += n
	}
	if s.staged > 0 {
		s.owner = &p[0]
	}
	return nil
}

// take reads a leaf's DATA payload of size bytes from w. When w's
// connection is a kernel socket and out can hold the payload, all of it
// stays in out for flush, and take returns a nil chunk: only the bytes the
// wire had already buffered are copied, from the wire's own buffer.
// Otherwise the payload comes back in a chunk from pool, as readData would
// return it. Bytes staged for an earlier payload that never reached the
// sink are dropped first.
func (s *sinkStage) take(w *wire, pool *chunkPool, size int) (*chunk, error) {
	s.drop()
	rc := s.socket(w)
	if rc == nil || size > s.room {
		c := pool.get(size)
		if err := s.fill(w, c.bytes()); err != nil {
			c.release()
			return nil, err
		}
		return c, nil
	}
	if b := min(w.br.Buffered(), size); b > 0 {
		head, _ := w.br.Peek(b)
		n, err := syscall.Write(s.out[1], head)
		if err != nil {
			n = 0
		}
		s.staged = n
		_, _ = w.br.Discard(n)
		if n < b {
			// What out did not take precedes the socket's bytes.
			return s.spill(w, pool, size, n)
		}
	}
	for s.staged < size {
		n, err := s.spliceIn(rc, size-s.staged)
		if err != nil {
			s.reset()
			return nil, err
		}
		m, err := splice(s.in[0], s.out[1], n)
		if err != nil && err != syscall.EAGAIN {
			s.reset()
			return nil, os.NewSyscallError("splice", err)
		}
		read := s.staged + n
		s.staged += max(m, 0) // -1 with EAGAIN
		if s.staged < read {
			// out is full before the payload ends (its socket pages
			// were small): the payload goes into a chunk after all.
			return s.spill(w, pool, size, read)
		}
	}
	return nil, nil
}

// spill moves the payload take has begun into a chunk from pool: the
// staged bytes from out, the read ones still in in, and the rest from w.
// The stage is left empty.
func (s *sinkStage) spill(w *wire, pool *chunkPool, size, read int) (*chunk, error) {
	c := pool.get(size)
	p := c.bytes()
	err := readPipe(s.out[0], p[:s.staged])
	if err == nil {
		err = readPipe(s.in[0], p[s.staged:read])
	}
	s.staged = 0
	if err == nil {
		err = w.readFull(p[read:])
	}
	if err != nil {
		s.reset()
		c.release()
		return nil, err
	}
	return c, nil
}

// socket returns the kernel socket behind w's connection with the stage
// pipes open, or nil when payloads cannot be spliced from it.
func (s *sinkStage) socket(w *wire) syscall.RawConn {
	sc, ok := w.conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil || s.open() != nil {
		return nil
	}
	return rc
}

// spliceIn moves up to n bytes from the socket behind rc into the empty
// pipe in. While the socket has none it waits on the poller, so the wire's
// read deadline holds.
func (s *sinkStage) spliceIn(rc syscall.RawConn, n int) (int, error) {
	var moved int
	var serr error
	if err := rc.Read(func(fd uintptr) bool {
		moved, serr = splice(int(fd), s.in[1], n)
		return serr != syscall.EAGAIN
	}); err != nil {
		return 0, err
	}
	switch {
	case serr != nil:
		return 0, os.NewSyscallError("splice", serr)
	case moved == 0:
		return 0, io.ErrUnexpectedEOF
	}
	return moved, nil
}

// splice moves up to n bytes from rfd to wfd, one of them a pipe, without
// blocking on the pipe.
func splice(rfd, wfd, n int) (int, error) {
	for {
		m, err := syscall.Splice(rfd, nil, wfd, nil, n, spliceFNonblock)
		if err != syscall.EINTR {
			return int(m), err
		}
	}
}

// readPipe reads exactly len(p) bytes that the pipe fd already holds.
func readPipe(fd int, p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Read(fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return os.NewSyscallError("read", err)
		case n == 0:
			return io.ErrUnexpectedEOF
		}
		p = p[n:]
	}
	return nil
}

// deliver writes chunk p to the sink: the prefix fill staged for it moves
// from out into the sink's pipe without a copy, and the rest is copied. A
// full sink pipe parks the goroutine on the poller, exactly as Write does.
func (s *sinkStage) deliver(p []byte) error {
	if len(p) == 0 || &p[0] != s.owner {
		s.drop()
	}
	staged := s.staged
	if err := s.flush(); err != nil {
		return err
	}
	if staged < len(p) {
		_, err := s.sink.Write(p[staged:])
		return err
	}
	return nil
}

// flush moves the staged bytes from out into the sink's pipe.
func (s *sinkStage) flush() error {
	staged := s.staged
	s.staged, s.owner = 0, nil
	for done := 0; done < staged; {
		var n int
		var serr error
		err := s.sinkConn.Write(func(fd uintptr) bool {
			n, serr = splice(s.out[0], int(fd), staged-done)
			return serr != syscall.EAGAIN
		})
		if err == nil && serr != nil {
			err = os.NewSyscallError("splice", serr)
		}
		if err != nil {
			s.reset()
			return err
		}
		done += n
	}
	s.moved += uint64(staged)
	return nil
}

// open makes the stage pipes unless they are open already. Their size is
// best effort: a pipe left smaller only stages less of each chunk.
func (s *sinkStage) open() error {
	if s.in[0] >= 0 {
		return nil
	}
	for _, p := range []*[2]int{&s.in, &s.out} {
		if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
			s.reset()
			return err
		}
		_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, uintptr(p[1]), fSetPipeSize, uintptr(s.pipeSize))
	}
	room, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(s.out[1]), fGetPipeSize, 0)
	if errno != 0 {
		room = 0
	}
	s.room = int(room)
	return nil
}

// drop discards bytes staged for a chunk that did not reach the sink.
func (s *sinkStage) drop() {
	if s.staged > 0 {
		s.reset()
	}
}

// reset closes the stage pipes, discarding whatever they hold; fill opens
// fresh ones.
func (s *sinkStage) reset() {
	for _, fd := range []int{s.in[0], s.in[1], s.out[0], s.out[1]} {
		if fd >= 0 {
			syscall.Close(fd)
		}
	}
	s.in, s.out = [2]int{-1, -1}, [2]int{-1, -1}
	s.staged, s.owner = 0, nil
}

// close releases the stage pipes for good.
func (s *sinkStage) close() {
	if s != nil {
		s.reset()
	}
}
