package core

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"
)

// loopConn is a trivial in-memory Conn for codec tests.
type loopConn struct {
	buf bytes.Buffer
}

func (l *loopConn) Read(p []byte) (int, error) {
	if l.buf.Len() == 0 {
		return 0, io.EOF
	}
	return l.buf.Read(p)
}
func (l *loopConn) Write(p []byte) (int, error)      { return l.buf.Write(p) }
func (l *loopConn) Close() error                     { return nil }
func (l *loopConn) SetDeadline(time.Time) error      { return nil }
func (l *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (l *loopConn) SetWriteDeadline(time.Time) error { return nil }
func (l *loopConn) LocalAddr() string                { return "a:0" }
func (l *loopConn) RemoteAddr() string               { return "b:0" }

func TestWireHelloRoundTrip(t *testing.T) {
	w := newWire(&loopConn{}, SystemClock())
	if err := w.writeHello(RoleData, 42); err != nil {
		t.Fatal(err)
	}
	typ, err := w.readType()
	if err != nil || typ != MsgHello {
		t.Fatalf("type %v err %v", typ, err)
	}
	role, idx, err := w.readHello()
	if err != nil || role != RoleData || idx != 42 {
		t.Fatalf("role %v idx %d err %v", role, idx, err)
	}
}

func TestWireControlFramesRoundTrip(t *testing.T) {
	w := newWire(&loopConn{}, SystemClock())
	if err := w.writeGet(1234567890123); err != nil {
		t.Fatal(err)
	}
	if err := w.writePGet(100, 200); err != nil {
		t.Fatal(err)
	}
	if err := w.writeForget(55); err != nil {
		t.Fatal(err)
	}
	if err := w.writeEnd(987654321); err != nil {
		t.Fatal(err)
	}
	if err := w.writeQuit(QuitAbandon); err != nil {
		t.Fatal(err)
	}
	if err := w.writePassed(); err != nil {
		t.Fatal(err)
	}

	expect := func(want MsgType) {
		t.Helper()
		typ, err := w.readType()
		if err != nil || typ != want {
			t.Fatalf("got %v err %v, want %v", typ, err, want)
		}
	}
	expect(MsgGet)
	if off, _ := w.readUint64(); off != 1234567890123 {
		t.Fatalf("get offset %d", off)
	}
	expect(MsgPGet)
	if lo, hi, _ := w.readPGet(); lo != 100 || hi != 200 {
		t.Fatalf("pget %d %d", lo, hi)
	}
	expect(MsgForget)
	if m, _ := w.readUint64(); m != 55 {
		t.Fatalf("forget %d", m)
	}
	expect(MsgEnd)
	if e, _ := w.readUint64(); e != 987654321 {
		t.Fatalf("end %d", e)
	}
	expect(MsgQuit)
	if r, _ := w.readQuit(); r != QuitAbandon {
		t.Fatalf("quit reason %v", r)
	}
	expect(MsgPassed)
}

func TestWireDataRoundTripQuick(t *testing.T) {
	f := func(payload []byte) bool {
		w := newWire(&loopConn{}, SystemClock())
		if err := w.writeData(payload); err != nil {
			return false
		}
		typ, err := w.readType()
		if err != nil || typ != MsgData {
			return false
		}
		got, err := w.readData(nil, nil)
		if err != nil {
			return false
		}
		equal := bytes.Equal(got.bytes(), payload)
		got.release()
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWireReportRoundTrip(t *testing.T) {
	w := newWire(&loopConn{}, SystemClock())
	in := &Report{
		TotalBytes: 1 << 31,
		Aborted:    true,
		Failures: []Failure{
			{Index: 3, Name: "n4", Reason: "ping unanswered", Offset: 4096, DetectedBy: "n3"},
			{Index: 7, Name: "n8", Reason: "dial failed", Offset: 8192, DetectedBy: "n3"},
		},
	}
	if err := w.writeReport(in); err != nil {
		t.Fatal(err)
	}
	typ, err := w.readType()
	if err != nil || typ != MsgReport {
		t.Fatalf("type %v err %v", typ, err)
	}
	out, err := w.readReport()
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalBytes != in.TotalBytes || !out.Aborted || len(out.Failures) != 2 {
		t.Fatalf("report mismatch: %+v", out)
	}
	if out.Failures[0] != in.Failures[0] || out.Failures[1] != in.Failures[1] {
		t.Fatalf("failures mismatch: %+v", out.Failures)
	}
}

func TestWireRejectsOversizedData(t *testing.T) {
	lc := &loopConn{}
	w := newWire(lc, SystemClock())
	// Forge a DATA header with an absurd length.
	lc.Write([]byte{byte(MsgData), 0xFF, 0xFF, 0xFF, 0xFF})
	if typ, _ := w.readType(); typ != MsgData {
		t.Fatal("setup failed")
	}
	if _, err := w.readData(nil, nil); err == nil {
		t.Fatal("oversized DATA accepted")
	}
}

func TestMsgTypeAndRoleStrings(t *testing.T) {
	for typ, want := range map[MsgType]string{
		MsgGet: "GET", MsgPGet: "PGET", MsgForget: "FORGET", MsgData: "DATA",
		MsgEnd: "END", MsgQuit: "QUIT", MsgReport: "REPORT", MsgPassed: "PASSED",
		MsgPing: "PING", MsgPong: "PONG", MsgHello: "HELLO",
	} {
		if typ.String() != want {
			t.Errorf("MsgType %d = %q, want %q", typ, typ.String(), want)
		}
	}
	if MsgType(99).String() == "" || Role(99).String() == "" {
		t.Error("unknown values must still format")
	}
	for role, want := range map[Role]string{
		RoleData: "data", RolePing: "ping", RoleFetch: "fetch", RoleReport: "report",
	} {
		if role.String() != want {
			t.Errorf("Role %d = %q", role, role.String())
		}
	}
}

func TestReportMerge(t *testing.T) {
	a := &Report{TotalBytes: 100, Failures: []Failure{{Index: 2, Name: "n3"}}}
	b := &Report{TotalBytes: 200, Aborted: true, Failures: []Failure{
		{Index: 2, Name: "n3", Reason: "duplicate, must not double"},
		{Index: 5, Name: "n6"},
	}}
	a.Merge(b)
	if a.TotalBytes != 200 || !a.Aborted {
		t.Fatalf("merge scalar fields: %+v", a)
	}
	if len(a.Failures) != 2 {
		t.Fatalf("dedupe failed: %+v", a.Failures)
	}
	if a.Failures[0].Index != 2 || a.Failures[0].Reason != "" {
		t.Fatalf("first record must win: %+v", a.Failures[0])
	}
	if !a.Failed(5) || a.Failed(7) {
		t.Fatal("Failed() lookup wrong")
	}
}

func TestReportCloneIsDeep(t *testing.T) {
	orig := &Report{Failures: []Failure{{Index: 1, Name: "n2"}}}
	c := orig.Clone()
	c.Failures[0].Name = "mutated"
	c.Failures = append(c.Failures, Failure{Index: 9})
	if orig.Failures[0].Name != "n2" || len(orig.Failures) != 1 {
		t.Fatalf("clone aliased original: %+v", orig)
	}
	var nilRep *Report
	if nilRep.Clone() == nil {
		t.Fatal("nil clone must produce empty report")
	}
}

func TestOptionsDefaultsAndValidation(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ChunkSize != 256<<10 || o.WindowChunks != 64 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.WriteStallTimeout != time.Second {
		t.Fatalf("stall timeout default %v, want the paper's 1s", o.WriteStallTimeout)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Options{ChunkSize: maxFrameData + 1}).Validate(); err == nil {
		t.Fatal("oversized chunk accepted")
	}
	if err := (Options{WindowChunks: 1}).Validate(); err == nil {
		t.Fatal("window of 1 accepted")
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (&Plan{}).Validate(); err == nil {
		t.Fatal("empty plan accepted")
	}
	p := &Plan{Peers: []Peer{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "a:1"}}}
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate address accepted")
	}
	p = &Plan{Peers: []Peer{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: ""}}}
	if err := p.Validate(); err == nil {
		t.Fatal("missing address accepted")
	}
	p = &Plan{Peers: []Peer{{Name: "a", Addr: "a:1"}, {Name: "b", Addr: "b:1"}}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
