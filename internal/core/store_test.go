package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowStoreSequentialReadBack(t *testing.T) {
	s := newWindowStore(4, 8, nil)
	var want []byte
	for i := 0; i < 5; i++ {
		chunk := []byte{byte(i), byte(i + 1), byte(i + 2), byte(i + 3)}
		want = append(want, chunk...)
		if err := s.AppendBytes(chunk); err != nil {
			t.Fatal(err)
		}
	}
	s.Finish(20)
	var got []byte
	off := uint64(0)
	for {
		c, err := s.ChunkAt(off)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c.bytes()...)
		off += uint64(len(c.bytes()))
		c.release()
		s.ResetLowWater(off)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestWindowStoreBackPressureAndEviction(t *testing.T) {
	s := newWindowStore(4, 2, nil) // capacity: 2 slots of 4 bytes
	mustAppend := func(b []byte) {
		t.Helper()
		if err := s.AppendBytes(b); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend([]byte{1, 1, 1, 1})
	mustAppend([]byte{2, 2, 2, 2})

	// Third append must block until the consumer confirms the first chunk.
	done := make(chan error, 1)
	go func() { done <- s.AppendBytes([]byte{3, 3, 3, 3}) }()
	select {
	case <-done:
		t.Fatal("append should have blocked on full window")
	case <-time.After(50 * time.Millisecond):
	}
	s.ResetLowWater(4) // first chunk consumed
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("append did not unblock after low-water rise")
	}
	// Offset 0 is now evicted.
	_, err := s.ChunkAt(0)
	var fe *ForgetError
	if !errors.As(err, &fe) || fe.Base != 4 {
		t.Fatalf("want ForgetError{4}, got %v", err)
	}
	// Offset 4 still readable.
	c, err2 := s.ChunkAt(4)
	if err2 != nil || c.bytes()[0] != 2 {
		t.Fatalf("chunk at 4: %v %v", c, err2)
	}
	c.release()
}

func TestWindowStoreReleaseAllLiftsBackPressure(t *testing.T) {
	s := newWindowStore(4, 2, nil)
	for i := 0; i < 2; i++ {
		if err := s.AppendBytes([]byte{byte(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.AppendBytes([]byte{9, 9, 9, 9}) }()
	time.Sleep(20 * time.Millisecond)
	s.ReleaseAll()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("ReleaseAll did not unblock append")
	}
}

func TestWindowStoreResetLowWaterProtectsReplay(t *testing.T) {
	s := newWindowStore(4, 4, nil) // 4 slots
	for i := 0; i < 4; i++ {
		if err := s.AppendBytes([]byte{byte(i), 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	s.ResetLowWater(16) // old successor consumed everything
	// New successor resumes at 4: protect [4,16) from eviction.
	s.ResetLowWater(4)
	done := make(chan error, 1)
	go func() { done <- s.AppendBytes([]byte{8, 0, 0, 0}) }()
	// Only chunk [0,4) is evictable; the append fits after one eviction.
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("append blocked despite evictable head chunk")
	}
	if c, err := s.ChunkAt(4); err != nil {
		t.Fatalf("replay chunk at 4 evicted: %v", err)
	} else {
		c.release()
	}
}

func TestWindowStoreAbortWakesWaiters(t *testing.T) {
	s := newWindowStore(4, 2, nil)
	got := make(chan error, 1)
	go func() {
		_, err := s.ChunkAt(0) // nothing appended: blocks
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	s.Abort(ErrQuit)
	select {
	case err := <-got:
		if !errors.Is(err, ErrQuit) {
			t.Fatalf("want ErrQuit, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("abort did not wake reader")
	}
	if s.AbortCause() != ErrQuit {
		t.Fatal("abort cause lost")
	}
	// First cause sticks.
	s.Abort(ErrAbandoned)
	if s.AbortCause() != ErrQuit {
		t.Fatal("abort cause overwritten")
	}
}

func TestWindowStoreEOFSemantics(t *testing.T) {
	s := newWindowStore(4, 4, nil)
	if err := s.AppendBytes([]byte{1, 2}); err != nil { // short final chunk
		t.Fatal(err)
	}
	s.Finish(2)
	if c, err := s.ChunkAt(0); err != nil || len(c.bytes()) != 2 {
		t.Fatalf("final chunk: %v %v", c, err)
	} else {
		c.release()
	}
	if _, err := s.ChunkAt(2); err != io.EOF {
		t.Fatalf("want EOF at end, got %v", err)
	}
	if end, ok := s.End(); !ok || end != 2 {
		t.Fatalf("End() = %d %v", end, ok)
	}
}

// TestWindowStoreAppendReportsParkedConsumers pins the count ingest's
// cut-through handoff reads: Append reports how many consumers were
// parked in ChunkAt for the chunk it stored.
func TestWindowStoreAppendReportsParkedConsumers(t *testing.T) {
	s := newWindowStore(4, 8, nil)
	for parked := 0; parked <= 2; parked++ {
		off := uint64(parked * 4)
		var wg sync.WaitGroup
		for i := 0; i < parked; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if c, err := s.ChunkAt(off); err == nil {
					c.release()
				}
			}()
		}
		waitCond(t, time.Second, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.waiters == parked
		})
		c := s.pool.get(4)
		woken, err := s.Append(c)
		if err != nil {
			t.Fatal(err)
		}
		if woken != parked {
			t.Fatalf("Append with %d consumers parked in ChunkAt reported %d", parked, woken)
		}
		wg.Wait()
	}
}

func TestWindowStoreAppendAfterFinishFails(t *testing.T) {
	s := newWindowStore(4, 4, nil)
	s.Finish(0)
	if err := s.AppendBytes([]byte{1}); err == nil {
		t.Fatal("append after finish accepted")
	}
}

// Property: for any chunking of a random payload and any window size, a
// sequential consumer that confirms each chunk reconstructs the payload
// exactly, regardless of producer/consumer interleaving.
func TestWindowStorePipelineIntegrityQuick(t *testing.T) {
	f := func(seed int64, window uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		chunkSize := rnd.Intn(64) + 1
		w := int(window)%14 + 2
		payload := make([]byte, rnd.Intn(4096))
		rnd.Read(payload)
		s := newWindowStore(chunkSize, w, nil)

		go func() {
			for off := 0; off < len(payload); off += chunkSize {
				end := off + chunkSize
				if end > len(payload) {
					end = len(payload)
				}
				if s.AppendBytes(payload[off:end]) != nil {
					return
				}
			}
			s.Finish(uint64(len(payload)))
		}()

		var got []byte
		off := uint64(0)
		for {
			c, err := s.ChunkAt(off)
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, c.bytes()...)
			off += uint64(len(c.bytes()))
			c.release()
			s.ResetLowWater(off)
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreChunks(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	fs := newFileStore(bytes.NewReader(payload), int64(len(payload)), 256, nil)
	if h := fs.Head(); h != 1000 {
		t.Fatalf("head %d", h)
	}
	if end, ok := fs.End(); !ok || end != 1000 {
		t.Fatalf("end %d %v", end, ok)
	}
	var got []byte
	for off := uint64(0); ; {
		c, err := fs.ChunkAt(off)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c.bytes()...)
		off += uint64(len(c.bytes()))
		c.release()
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file store corrupted payload")
	}
	// Random access at any offset (the PGET property).
	c, err := fs.ChunkAt(512)
	if err != nil || c.bytes()[0] != payload[512] {
		t.Fatalf("random access: %v %v", c, err)
	}
	c.release()
	fs.Abort(ErrQuit)
	if _, err := fs.ChunkAt(0); !errors.Is(err, ErrQuit) {
		t.Fatalf("abort not honoured: %v", err)
	}
}
