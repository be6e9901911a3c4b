package bufpool

import "testing"

func TestGetSizesAndRecycles(t *testing.T) {
	const size = 12345 // no other user of the pool shares it
	b := Get(size)
	if len(b) != size || cap(b) != size {
		t.Fatalf("Get(%d) returned len %d cap %d", size, len(b), cap(b))
	}
	Put(b[:7]) // a shortened slice goes back at its full capacity
	if c := Get(size); len(c) != size {
		t.Fatalf("Get after Put returned len %d, want %d", len(c), size)
	}

	// A Get/Put cycle recycles the buffer and its box. A plain sync.Pool of
	// slices would box a header per Put and read 1. (The race detector's
	// sync.Pool drops a quarter of all Puts on purpose; AllocsPerRun's
	// whole-number average still reads 0 there.)
	allocs := testing.AllocsPerRun(400, func() { Put(Get(size)) })
	if allocs >= 1 {
		t.Errorf("Get+Put allocates %.2f times, want < 1", allocs)
	}
}
