package core

import (
	"io"
	"syscall"
)

// PipeSink is an optional capability of NodeConfig.Sink, tested for the way
// transport.BuffersWriter is: the write end of a pipe, such as the standard
// input of a command (an *os.File from os.Pipe qualifies).
//
// On Linux, a receiver whose upstream connection is a kernel socket feeds
// such a sink without copying the payload into the pipe. It splices each
// DATA payload from the socket into a private pipe, tees it into a second
// one and reads the chunk's buffer from the first; ingest then moves the
// staged bytes into the sink. The sink's pipe refers only to the kernel's
// socket pages, never to a buffer of the node's, so the pool recycles
// buffers exactly as it does for a copying sink, whatever the reader does
// with its pipe (splice or tee it onward, or leave it to a background
// child). Late joiners, in-memory connections, sinks that are not pipes
// and other systems write by copy.
type PipeSink interface {
	io.Writer
	SyscallConn() (syscall.RawConn, error)
}
