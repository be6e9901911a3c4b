//go:build !linux

package core

import "io"

// sinkStage would move payloads into a PipeSink by reference; without
// splice(2) and tee(2) every sink is written by copy.
type sinkStage struct{}

func newSinkStage(io.Writer, int) *sinkStage { return nil }

func (s *sinkStage) fill(w *wire, p []byte) error { return w.readFull(p) }
func (s *sinkStage) deliver([]byte) error         { panic("kascade: no sink stage on this system") }
func (s *sinkStage) take(*wire, *chunkPool, int) (*chunk, error) {
	panic("kascade: no sink stage on this system")
}
func (s *sinkStage) flush() error { panic("kascade: no sink stage on this system") }
func (s *sinkStage) close()       {}
