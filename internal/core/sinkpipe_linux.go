//go:build linux

package core

import (
	"io"
	"os"
	"syscall"
)

// fSetPipeSize is fcntl's F_SETPIPE_SZ (F_LINUX_SPECIFIC_BASE + 7, the same
// on every Linux architecture).
const fSetPipeSize = 1031

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
type sinkStage struct {
	sink     io.Writer
	sinkConn syscall.RawConn // the sink pipe's write end
	pipeSize int             // capacity asked for each stage pipe

	// in carries the bytes of one splice from the socket until they are
	// teed into out and read into the chunk; out keeps the chunk's staged
	// prefix until deliver moves it to the sink. Both are [read, write]
	// descriptor pairs, -1 while closed.
	in, out [2]int
	staged  int    // bytes at the front of the last filled chunk held in out
	owner   *byte  // first byte of that chunk
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
	sc, ok := w.conn.(syscall.Conn)
	if !ok || len(p) == 0 {
		return w.readFull(p)
	}
	rc, err := sc.SyscallConn()
	if err != nil || s.open() != nil {
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

// spliceIn moves up to n bytes from the socket behind rc into the empty
// pipe in. While the socket has none it waits on the poller, so the wire's
// read deadline holds.
func (s *sinkStage) spliceIn(rc syscall.RawConn, n int) (int, error) {
	var moved int64
	var serr error
	if err := rc.Read(func(fd uintptr) bool {
		for {
			moved, serr = syscall.Splice(int(fd), nil, s.in[1], nil, n, spliceFNonblock)
			if serr != syscall.EINTR {
				return serr != syscall.EAGAIN
			}
		}
	}); err != nil {
		return 0, err
	}
	switch {
	case serr != nil:
		return 0, os.NewSyscallError("splice", serr)
	case moved == 0:
		return 0, io.ErrUnexpectedEOF
	}
	return int(moved), nil
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
	staged := 0
	if len(p) > 0 && &p[0] == s.owner {
		staged = s.staged
	} else {
		s.drop()
	}
	s.staged, s.owner = 0, nil
	for done := 0; done < staged; {
		var n int64
		var serr error
		err := s.sinkConn.Write(func(fd uintptr) bool {
			for {
				n, serr = syscall.Splice(s.out[0], nil, int(fd), nil, staged-done, spliceFNonblock)
				if serr != syscall.EINTR {
					return serr != syscall.EAGAIN
				}
			}
		})
		if err == nil && serr != nil {
			err = os.NewSyscallError("splice", serr)
		}
		if err != nil {
			s.reset()
			return err
		}
		done += int(n)
	}
	s.moved += uint64(staged)
	if staged < len(p) {
		_, err := s.sink.Write(p[staged:])
		return err
	}
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
