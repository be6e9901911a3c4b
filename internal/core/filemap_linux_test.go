package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMappedFileStore: a file source is served as views of its mapping,
// which stays mapped while a view is held after the store closed. A file
// that shrinks aborts the store with the error a short pread gives, and a
// reader that is not a regular file is not mapped.
func TestMappedFileStore(t *testing.T) {
	const size = 4<<10 + 3
	data := testPayload(3*size+100, 7)
	path := filepath.Join(t.TempDir(), "src")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if mapFile(bytes.NewReader(data), int64(len(data))) != nil {
		t.Error("an in-memory reader was mapped")
	}
	if mapFile(f, int64(len(data))+1) != nil {
		t.Error("a file shorter than the source size was mapped")
	}

	s := newFileStore(f, int64(len(data)), size, nil)
	if s.fm = mapFile(f, int64(len(data))); s.fm == nil {
		t.Fatal("a regular file was not mapped")
	}
	var held *chunk
	for off := uint64(0); off < uint64(len(data)); off += size {
		c, err := s.ChunkAt(off)
		if err != nil {
			t.Fatal(err)
		}
		if c.src != s.fm || !bytes.Equal(c.bytes(), data[off:min(off+size, uint64(len(data)))]) {
			t.Fatalf("chunk at %d is not a view of the file's bytes", off)
		}
		if held == nil {
			held = c
		} else {
			c.release()
		}
	}
	s.close()
	if _, err := s.ChunkAt(0); err == nil {
		t.Error("a closed store served a view")
	}
	if r := s.fm.refs.Load(); r != 1 {
		t.Fatalf("after close, the mapping has %d holds, want the held view's", r)
	}
	held.release()
	if r := s.fm.refs.Load(); r != 0 {
		t.Fatalf("mapping still has %d holds after the last view went", r)
	}

	s = newFileStore(f, int64(len(data)), size, nil)
	s.fm = mapFile(f, int64(len(data)))
	defer s.close()
	if err := os.Truncate(path, size+size/2); err != nil {
		t.Fatal(err)
	}
	_, want := newFileStore(f, int64(len(data)), size, nil).ChunkAt(size)
	if _, err := s.ChunkAt(size); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("shrunk file: mapped store says %v, pread says %v", err, want)
	}
	if err := s.AbortCause(); err == nil || err.Error() != want.Error() {
		t.Fatalf("shrunk file left the store's abort cause at %v", err)
	}
}
