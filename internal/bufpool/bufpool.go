// Package bufpool recycles large byte buffers across the short-lived
// objects that own them: chunk pools in core (one per session) and pipe
// rings in transport (one per connection direction). Both churn through
// dozens of owners per second in tests and benchmarks, and a fresh
// make([]byte, 256<<10) is a large-object allocation plus a memclr on every
// miss, so the buffers are kept hot instead. Buffers come back dirty:
// callers bound their reads by what they wrote.
package bufpool

import "sync"

// sized holds the idle buffers of one capacity. sync.Pool stores
// interfaces, and boxing a slice header allocates, so buffers travel in
// *[]byte boxes that Get empties and Put refills: steady-state traffic
// allocates nothing. The GC still reclaims idle buffers, so a burst at one
// size does not pin memory for ever.
type sized struct {
	full  sync.Pool // *[]byte, each holding one idle buffer
	empty sync.Pool // *[]byte whose buffer Get handed out
}

var pools sync.Map // int (capacity) -> *sized

// Get returns a buffer of length and capacity size, recycled when one is
// idle. Its contents are unspecified.
func Get(size int) []byte {
	if p, ok := pools.Load(size); ok {
		s := p.(*sized)
		if box, _ := s.full.Get().(*[]byte); box != nil {
			b := *box
			*box = nil
			s.empty.Put(box)
			return b
		}
	}
	return make([]byte, size)
}

// Put hands b back for a later Get(cap(b)). The caller must not touch b
// afterwards.
func Put(b []byte) {
	b = b[:cap(b)]
	p, ok := pools.Load(len(b))
	if !ok {
		p, _ = pools.LoadOrStore(len(b), &sized{})
	}
	s := p.(*sized)
	box, _ := s.empty.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b
	s.full.Put(box)
}
