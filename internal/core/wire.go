package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"kascade/internal/transport"
)

// MsgType enumerates the protocol messages of Fig 4 of the paper, plus the
// connection-open (HELLO) and liveness (PING/PONG) frames its §III-D1
// failure detector implies.
type MsgType byte

const (
	MsgHello  MsgType = iota + 1 // role + node index: opens every connection
	MsgGet                       // offset: request stream data from offset
	MsgPGet                      // [from,to): request a byte range (gap fetch)
	MsgForget                    // min offset: requested data not available anymore
	MsgData                      // length + payload: one chunk
	MsgEnd                       // total length: end of stream
	MsgQuit                      // reason: anticipated end of stream
	MsgReport                    // length + JSON report
	MsgPassed                    // report reached node 1; sender may exit
	MsgPing                      // liveness probe
	MsgPong                      // liveness answer
	MsgHello2                    // HELLO v2: role + node index + session ID
	MsgReorg                     // view version + slot assignment: tree re-ranking plan
	MsgRate                      // length + JSON link-rate report (reorg spoke)
	MsgReorg2                    // REORG plus the member table for slots beyond the start plan
	MsgJoin                      // length + JSON join request (late joiner → node 0)
	MsgJoinInfo                  // length + JSON session descriptor (node 0 → joiner, pre-admission)
	MsgJoinGo                    // joiner passed local admission; node 0 may graft
	MsgJoinOK                    // length + JSON join grant (node 0 → joiner)
)

func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "HELLO"
	case MsgGet:
		return "GET"
	case MsgPGet:
		return "PGET"
	case MsgForget:
		return "FORGET"
	case MsgData:
		return "DATA"
	case MsgEnd:
		return "END"
	case MsgQuit:
		return "QUIT"
	case MsgReport:
		return "REPORT"
	case MsgPassed:
		return "PASSED"
	case MsgPing:
		return "PING"
	case MsgPong:
		return "PONG"
	case MsgHello2:
		return "HELLO2"
	case MsgReorg:
		return "REORG"
	case MsgRate:
		return "RATE"
	case MsgReorg2:
		return "REORG2"
	case MsgJoin:
		return "JOIN"
	case MsgJoinInfo:
		return "JOININFO"
	case MsgJoinGo:
		return "JOINGO"
	case MsgJoinOK:
		return "JOINOK"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(m))
	}
}

// Role identifies the purpose of a connection, declared by the HELLO frame.
type Role byte

const (
	RoleData   Role = iota + 1 // predecessor streaming the broadcast to a successor
	RolePing                   // liveness probe (§III-D1)
	RoleFetch                  // PGET gap fetch directed at node 1 (§III-D2)
	RoleReport                 // ring-closing report delivery from the last node to node 1
	RoleRate                   // link-rate report spoke to node 0 (self-reorganization)
	RoleJoin                   // late-join admission conversation directed at node 0
)

func (r Role) String() string {
	switch r {
	case RoleData:
		return "data"
	case RolePing:
		return "ping"
	case RoleFetch:
		return "fetch"
	case RoleReport:
		return "report"
	case RoleRate:
		return "rate"
	case RoleJoin:
		return "join"
	default:
		return fmt.Sprintf("Role(%d)", byte(r))
	}
}

// QuitReason distinguishes the two uses of QUIT in the paper: a user
// interruption (a report still follows and the pipeline closes its ring)
// versus the abandon cascade after data was irrecoverably lost on a
// streamed source (the receiving node gives up entirely).
type QuitReason byte

const (
	QuitUser     QuitReason = iota + 1 // anticipated end of stream; report follows
	QuitAbandon                        // unrecoverable loss; receiver must abandon
	QuitExcluded                       // receiver excluded for low throughput (§V); step aside quietly
)

// maxFrameData bounds DATA/REPORT payload lengths accepted from the wire,
// protecting against corrupted length prefixes.
const maxFrameData = 1 << 28

// wire frames messages over a transport connection. Reads are buffered;
// writes go straight to the connection (optionally through a stall-detecting
// writer) so that a partially timed-out write can be resumed byte-exactly.
//
// DATA payloads are never copied inside the wire layer: readData reads
// straight into a pool-owned buffer and hands the caller the reference, and
// writeDataBatch stitches frame headers and payloads together with a single
// vectored write when the underlying writer supports transport.BuffersWriter
// (falling back to sequential writes otherwise).
type wire struct {
	conn transport.Conn
	br   *bufio.Reader
	out  io.Writer        // conn, or a stallWriter wrapping it
	now  func() time.Time // deadline base, injectable via Options.Clock
	hdr  [17]byte         // scratch header buffer for writes
	rhdr [13]byte         // scratch for fixed-size reads (a local array would escape through io.ReadFull)

	hdrs []byte   // scratch DATA headers for vectored batches (5 B each)
	vec  [][]byte // scratch iovec: header, payload, header, payload, ...
}

// newWire wraps c with clk as the deadline base. Every constructor must
// state its time source explicitly — a silent time.Now default here is what
// once let wire timeouts escape the injectable clock seam that the chaos
// harness's fake clock depends on.
func newWire(c transport.Conn, clk Clock) *wire {
	return &wire{conn: c, br: bufio.NewReaderSize(c, 4<<10), out: c, now: clk.Now}
}

func (w *wire) close() error { return w.conn.Close() }

// readType reads the next frame's type byte, honouring the deadline set on
// the connection by the caller.
func (w *wire) readType() (MsgType, error) {
	b, err := w.br.ReadByte()
	if err != nil {
		return 0, err
	}
	return MsgType(b), nil
}

func (w *wire) readFull(p []byte) error {
	_, err := io.ReadFull(w.br, p)
	return err
}

// readHeader reads the next n bytes (n <= len(w.rhdr)) into the read
// scratch. The result is valid until the next read on w.
func (w *wire) readHeader(n int) ([]byte, error) {
	b := w.rhdr[:n]
	return b, w.readFull(b)
}

func (w *wire) readUint64() (uint64, error) {
	b, err := w.readHeader(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (w *wire) readUint32() (uint32, error) {
	b, err := w.readHeader(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// readHello parses the payload of a HELLO frame (after its type byte).
func (w *wire) readHello() (Role, int, error) {
	b, err := w.readHeader(5)
	if err != nil {
		return 0, 0, err
	}
	return Role(b[0]), int(binary.BigEndian.Uint32(b[1:])), nil
}

// readHello2 parses the payload of a HELLO v2 frame (after its type byte):
// role, node index, then the 8-byte broadcast session ID.
func (w *wire) readHello2() (Role, int, SessionID, error) {
	b, err := w.readHeader(13)
	if err != nil {
		return 0, 0, 0, err
	}
	return Role(b[0]), int(binary.BigEndian.Uint32(b[1:5])), SessionID(binary.BigEndian.Uint64(b[5:])), nil
}

// readHelloAny reads the connection-opening frame, accepting both protocol
// versions: a v1 HELLO (no session ID) maps onto the default session 0,
// a v2 HELLO2 carries its broadcast session ID explicitly. This is the
// backward-detection point: a v2 accept path serves v1 dialers unchanged.
func (w *wire) readHelloAny() (Role, int, SessionID, error) {
	typ, err := w.readType()
	if err != nil {
		return 0, 0, 0, err
	}
	switch typ {
	case MsgHello:
		role, from, err := w.readHello()
		return role, from, 0, err
	case MsgHello2:
		return w.readHello2()
	default:
		return 0, 0, 0, &errProtocol{want: MsgHello, got: typ}
	}
}

// readData reads a DATA payload (after the type byte) straight into a
// buffer owned by pool and returns the chunk with one reference, which the
// caller owns (a nil pool serves one-off buffers). There is no intermediate
// copy: the bytes land in the buffer that the window store will retain.
func (w *wire) readData(pool *chunkPool) (*chunk, error) {
	size, err := w.readDataSize()
	if err != nil {
		return nil, err
	}
	return w.readDataInto(pool, size)
}

// readDataSize reads and bounds-checks a DATA frame's length prefix, leaving
// the payload unread. The splice path uses it to learn the frame size before
// deciding whether the payload crosses through the kernel or lands in a
// pooled buffer via readDataInto.
func (w *wire) readDataSize() (int, error) {
	size, err := w.readUint32()
	if err != nil {
		return 0, err
	}
	if size > maxFrameData {
		return 0, fmt.Errorf("kascade: DATA frame of %d bytes exceeds limit", size)
	}
	return int(size), nil
}

// readDataInto reads a DATA payload of known size into a pool-owned buffer.
func (w *wire) readDataInto(pool *chunkPool, size int) (*chunk, error) {
	c := pool.get(size)
	if err := w.readFull(c.bytes()); err != nil {
		c.release()
		return nil, err
	}
	return c, nil
}

// readQuit parses a QUIT payload (after the type byte).
func (w *wire) readQuit() (QuitReason, error) {
	b, err := w.br.ReadByte()
	if err != nil {
		return 0, err
	}
	return QuitReason(b), nil
}

// readPGet parses a PGET payload.
func (w *wire) readPGet() (from, to uint64, err error) {
	if from, err = w.readUint64(); err != nil {
		return 0, 0, err
	}
	if to, err = w.readUint64(); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

// readReport parses a REPORT payload.
func (w *wire) readReport() (*Report, error) {
	size, err := w.readUint32()
	if err != nil {
		return nil, err
	}
	if size > maxFrameData {
		return nil, fmt.Errorf("kascade: REPORT frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if err := w.readFull(payload); err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("kascade: bad report payload: %w", err)
	}
	return &r, nil
}

// maxReorgSlots bounds the occupant table accepted from the wire.
const maxReorgSlots = 1 << 20

// readReorg parses a REORG payload (after the type byte): the view
// version, then the slot-occupant table — tree slot i is held by the node
// whose original pipeline index is occ[i].
func (w *wire) readReorg() (uint64, []int32, error) {
	version, err := w.readUint64()
	if err != nil {
		return 0, nil, err
	}
	count, err := w.readUint32()
	if err != nil {
		return 0, nil, err
	}
	if count > maxReorgSlots {
		return 0, nil, fmt.Errorf("kascade: REORG frame with %d slots exceeds limit", count)
	}
	buf := make([]byte, 4*count)
	if err := w.readFull(buf); err != nil {
		return 0, nil, err
	}
	occ := make([]int32, count)
	for i := range occ {
		occ[i] = int32(binary.BigEndian.Uint32(buf[4*i:]))
	}
	return version, occ, nil
}

// readRateReport parses a RATE payload (after the type byte).
func (w *wire) readRateReport() (*rateReport, error) {
	size, err := w.readUint32()
	if err != nil {
		return nil, err
	}
	if size > maxFrameData {
		return nil, fmt.Errorf("kascade: RATE frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if err := w.readFull(payload); err != nil {
		return nil, err
	}
	var r rateReport
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("kascade: bad rate report payload: %w", err)
	}
	return &r, nil
}

func (w *wire) writeAll(p []byte) error {
	_, err := w.out.Write(p)
	return err
}

func (w *wire) writeHello(role Role, index int) error {
	w.hdr[0] = byte(MsgHello)
	w.hdr[1] = byte(role)
	binary.BigEndian.PutUint32(w.hdr[2:6], uint32(index))
	return w.writeAll(w.hdr[:6])
}

// writeHelloFor opens a connection for session sid: the default session 0
// emits a byte-identical v1 HELLO (full backward compatibility); any other
// session emits HELLO2 with the ID, so a shared accept path can route it.
func (w *wire) writeHelloFor(role Role, index int, sid SessionID) error {
	if sid == 0 {
		return w.writeHello(role, index)
	}
	w.hdr[0] = byte(MsgHello2)
	w.hdr[1] = byte(role)
	binary.BigEndian.PutUint32(w.hdr[2:6], uint32(index))
	binary.BigEndian.PutUint64(w.hdr[6:14], uint64(sid))
	return w.writeAll(w.hdr[:14])
}

func (w *wire) writeGet(offset uint64) error {
	w.hdr[0] = byte(MsgGet)
	binary.BigEndian.PutUint64(w.hdr[1:9], offset)
	return w.writeAll(w.hdr[:9])
}

func (w *wire) writePGet(from, to uint64) error {
	w.hdr[0] = byte(MsgPGet)
	binary.BigEndian.PutUint64(w.hdr[1:9], from)
	binary.BigEndian.PutUint64(w.hdr[9:17], to)
	return w.writeAll(w.hdr[:17])
}

func (w *wire) writeForget(minOffset uint64) error {
	w.hdr[0] = byte(MsgForget)
	binary.BigEndian.PutUint64(w.hdr[1:9], minOffset)
	return w.writeAll(w.hdr[:9])
}

func (w *wire) writeData(chunk []byte) error {
	w.hdr[0] = byte(MsgData)
	binary.BigEndian.PutUint32(w.hdr[1:5], uint32(len(chunk)))
	if err := w.writeAll(w.hdr[:5]); err != nil {
		return err
	}
	return w.writeAll(chunk)
}

// dataFrameHeader is the DATA frame header size: type byte + length prefix.
const dataFrameHeader = 5

// writeDataBatch frames every chunk in cs and writes the whole batch —
// headers and payloads interleaved — in one vectored write when the
// underlying writer supports it. Scratch buffers are reused across calls,
// so a steady relay emits batches without allocating. The caller keeps its
// chunk references; payload bytes are only read.
func (w *wire) writeDataBatch(cs []*chunk) error {
	if cap(w.vec) < 2*len(cs) {
		// Size both scratch slices (always together, so checking one
		// covers the other) to the caller's batch capacity, not this
		// batch's length: a connection whose batches grow as its
		// successor falls behind allocates once.
		w.hdrs = make([]byte, dataFrameHeader*cap(cs))
		w.vec = make([][]byte, 0, 2*cap(cs))
	}
	w.vec = w.vec[:0]
	for i, c := range cs {
		h := w.hdrs[i*dataFrameHeader : (i+1)*dataFrameHeader]
		payload := c.bytes()
		h[0] = byte(MsgData)
		binary.BigEndian.PutUint32(h[1:], uint32(len(payload)))
		w.vec = append(w.vec, h, payload)
	}
	// transport.WriteBuffers (and BuffersWriter implementations) may
	// consume w.vec's entries; that is fine, it is scratch.
	_, err := transport.WriteBuffers(w.out, w.vec)
	return err
}

func (w *wire) writeEnd(total uint64) error {
	w.hdr[0] = byte(MsgEnd)
	binary.BigEndian.PutUint64(w.hdr[1:9], total)
	return w.writeAll(w.hdr[:9])
}

func (w *wire) writeQuit(reason QuitReason) error {
	w.hdr[0] = byte(MsgQuit)
	w.hdr[1] = byte(reason)
	return w.writeAll(w.hdr[:2])
}

func (w *wire) writeReport(r *Report) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("kascade: encoding report: %w", err)
	}
	w.hdr[0] = byte(MsgReport)
	binary.BigEndian.PutUint32(w.hdr[1:5], uint32(len(payload)))
	if err := w.writeAll(w.hdr[:5]); err != nil {
		return err
	}
	return w.writeAll(payload)
}

// writeReorg frames a tree re-ranking plan (see readReorg).
func (w *wire) writeReorg(version uint64, occupants []int32) error {
	w.hdr[0] = byte(MsgReorg)
	binary.BigEndian.PutUint64(w.hdr[1:9], version)
	binary.BigEndian.PutUint32(w.hdr[9:13], uint32(len(occupants)))
	if err := w.writeAll(w.hdr[:13]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(occupants))
	for i, o := range occupants {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(o))
	}
	return w.writeAll(buf)
}

// wireMember names a membership slot learned over the wire. Late joiners
// are appended to the broadcast membership after START, so any view that
// references slots beyond the start plan must carry the index→peer mapping
// itself (readers admitted at START only know the original plan).
type wireMember struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Addr  string `json:"addr"`
}

// maxReorgMembers bounds the member table accepted from the wire.
const maxReorgMembers = 1 << 16

// writeReorg2 frames a re-ranking plan together with the member table for
// the slots past the start plan — the dynamic-membership superset of
// writeReorg. Sessions that never admit a joiner never emit this frame,
// keeping their byte stream identical to the pre-JOIN protocol.
func (w *wire) writeReorg2(version uint64, occupants []int32, members []wireMember) error {
	payload, err := json.Marshal(members)
	if err != nil {
		return fmt.Errorf("kascade: encoding member table: %w", err)
	}
	w.hdr[0] = byte(MsgReorg2)
	binary.BigEndian.PutUint64(w.hdr[1:9], version)
	binary.BigEndian.PutUint32(w.hdr[9:13], uint32(len(occupants)))
	if err := w.writeAll(w.hdr[:13]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(occupants))
	for i, o := range occupants {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(o))
	}
	if err := w.writeAll(buf); err != nil {
		return err
	}
	var lb [4]byte
	binary.BigEndian.PutUint32(lb[:], uint32(len(payload)))
	if err := w.writeAll(lb[:]); err != nil {
		return err
	}
	return w.writeAll(payload)
}

// readReorg2 parses a REORG2 payload (after the type byte): the REORG body
// followed by the member table for slots beyond the reader's start plan.
func (w *wire) readReorg2() (uint64, []int32, []wireMember, error) {
	version, occ, err := w.readReorg()
	if err != nil {
		return 0, nil, nil, err
	}
	size, err := w.readUint32()
	if err != nil {
		return 0, nil, nil, err
	}
	if size > maxFrameData {
		return 0, nil, nil, fmt.Errorf("kascade: REORG2 member table of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if err := w.readFull(payload); err != nil {
		return 0, nil, nil, err
	}
	var members []wireMember
	if err := json.Unmarshal(payload, &members); err != nil {
		return 0, nil, nil, fmt.Errorf("kascade: bad member table payload: %w", err)
	}
	if len(members) > maxReorgMembers {
		return 0, nil, nil, fmt.Errorf("kascade: member table with %d entries exceeds limit", len(members))
	}
	return version, occ, members, nil
}

// writeJSON frames a small JSON payload under the given type byte, in the
// same length-prefixed layout as REPORT and RATE frames.
func (w *wire) writeJSON(t MsgType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("kascade: encoding %v payload: %w", t, err)
	}
	w.hdr[0] = byte(t)
	binary.BigEndian.PutUint32(w.hdr[1:5], uint32(len(payload)))
	if err := w.writeAll(w.hdr[:5]); err != nil {
		return err
	}
	return w.writeAll(payload)
}

// readJSON parses a length-prefixed JSON payload (after the type byte).
func (w *wire) readJSON(v any) error {
	size, err := w.readUint32()
	if err != nil {
		return err
	}
	if size > maxFrameData {
		return fmt.Errorf("kascade: JSON frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if err := w.readFull(payload); err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("kascade: bad frame payload: %w", err)
	}
	return nil
}

func (w *wire) writeRateReport(r *rateReport) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("kascade: encoding rate report: %w", err)
	}
	w.hdr[0] = byte(MsgRate)
	binary.BigEndian.PutUint32(w.hdr[1:5], uint32(len(payload)))
	if err := w.writeAll(w.hdr[:5]); err != nil {
		return err
	}
	return w.writeAll(payload)
}

func (w *wire) writeType(t MsgType) error {
	w.hdr[0] = byte(t)
	return w.writeAll(w.hdr[:1])
}

func (w *wire) writePassed() error { return w.writeType(MsgPassed) }
func (w *wire) writePing() error   { return w.writeType(MsgPing) }
func (w *wire) writePong() error   { return w.writeType(MsgPong) }

// setReadDeadlineIn sets the connection read deadline d from now
// (zero d clears it).
func (w *wire) setReadDeadlineIn(d time.Duration) {
	if d <= 0 {
		_ = w.conn.SetReadDeadline(time.Time{})
		return
	}
	_ = w.conn.SetReadDeadline(w.now().Add(d))
}

// setWriteDeadlineIn sets the connection write deadline d from now.
func (w *wire) setWriteDeadlineIn(d time.Duration) {
	_ = w.conn.SetWriteDeadline(w.now().Add(d))
}
