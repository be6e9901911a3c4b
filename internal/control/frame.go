// Package control implements the sender↔agent control channel: a framed,
// request-ID-multiplexed protocol carrying any number of concurrent
// broadcast sessions over exactly one long-lived TCP connection per
// sender↔agent pair.
//
// Two properties carry it:
//
//   - Framing: every message is a fixed 14-byte header — magic, frame
//     type, request ID, payload length — followed by a JSON payload.
//     Replies carry the request ID of their request, so PREPARE/START/
//     STATUS/RELEASE exchanges for different sessions interleave freely
//     on the shared channel (a START's RESULT arrives minutes after
//     later frames were served).
//
//   - Liveness: per-session leases renewed by HEARTBEAT frames. An agent
//     kills exactly the sessions whose leases lapse; the channel closing
//     ends every session on it.
//
// The first byte of every frame is Magic: an agent closes a control
// connection that opens with any other byte.
package control

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"kascade/internal/core"
)

// Magic is the first byte of every control frame.
const Magic = 0xA6

// FrameType enumerates the control frames.
type FrameType byte

const (
	// FramePrepare asks the agent to admit a session and report its shared
	// data address. Final reply: FramePrepared or FrameError; a
	// FrameQueued notice may precede either while admission queues.
	FramePrepare FrameType = iota + 1
	FramePrepared
	FrameQueued
	// FrameStart launches an admitted session's node. The FrameResult
	// reply arrives when the broadcast finishes, however long that takes.
	FrameStart
	FrameResult
	// FrameStatus asks for the agent's engine stats and session table.
	FrameStatus
	FrameStats
	// FrameRelease withdraws a session: a queued or admitted session is
	// cancelled, a running one is killed. Reply: FrameReleased.
	FrameRelease
	FrameReleased
	// FrameHeartbeat renews the leases of the named sessions.
	FrameHeartbeat
	FrameHeartbeatAck
	// FrameError is the failure reply to any request.
	FrameError
	// FrameJoin asks the agent to join a live broadcast as a late peer:
	// engine admission, the RoleJoin graft negotiation with the session's
	// sender, then running the joiner node. Reply: FrameJoined when the
	// graft landed (the node keeps running; a FrameResult follows when it
	// finishes), or FrameError with a membership code.
	FrameJoin
	FrameJoined
)

func (t FrameType) String() string {
	switch t {
	case FramePrepare:
		return "PREPARE"
	case FramePrepared:
		return "PREPARED"
	case FrameQueued:
		return "QUEUED"
	case FrameStart:
		return "START"
	case FrameResult:
		return "RESULT"
	case FrameStatus:
		return "STATUS"
	case FrameStats:
		return "STATS"
	case FrameRelease:
		return "RELEASE"
	case FrameReleased:
		return "RELEASED"
	case FrameHeartbeat:
		return "HEARTBEAT"
	case FrameHeartbeatAck:
		return "HEARTBEAT-ACK"
	case FrameError:
		return "ERROR"
	case FrameJoin:
		return "JOIN"
	case FrameJoined:
		return "JOINED"
	default:
		return fmt.Sprintf("FrameType(%d)", byte(t))
	}
}

// headerSize is magic + type + request ID + payload length.
const headerSize = 1 + 1 + 8 + 4

// maxFramePayload bounds control payloads read from the wire (plans carry
// the full peer list, reports the full failure list — generous but finite).
const maxFramePayload = 16 << 20

// frame is one decoded control message.
type frame struct {
	Type    FrameType
	Req     uint64
	Payload []byte
}

// decode unmarshals the frame payload into v.
func (f frame) decode(v any) error {
	if err := json.Unmarshal(f.Payload, v); err != nil {
		return fmt.Errorf("control: bad %v payload: %w", f.Type, err)
	}
	return nil
}

// writeFrame marshals payload and writes one frame. Callers serialise
// writes themselves (the client and server each hold a write mutex).
func writeFrame(w io.Writer, typ FrameType, req uint64, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("control: encoding %v: %w", typ, err)
	}
	if len(body) > maxFramePayload {
		return fmt.Errorf("control: %v payload of %d bytes exceeds limit", typ, len(body))
	}
	hdr := make([]byte, headerSize, headerSize+len(body))
	hdr[0] = Magic
	hdr[1] = byte(typ)
	binary.BigEndian.PutUint64(hdr[2:10], req)
	binary.BigEndian.PutUint32(hdr[10:14], uint32(len(body)))
	_, err = w.Write(append(hdr, body...))
	return err
}

// readFrame reads one frame from r. io.EOF passes through untouched so
// loops can distinguish a clean close from a protocol error.
func readFrame(r io.Reader) (frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return frame{}, io.EOF
		}
		return frame{}, err
	}
	if hdr[0] != Magic {
		return frame{}, fmt.Errorf("control: bad frame magic 0x%02x", hdr[0])
	}
	f := frame{
		Type: FrameType(hdr[1]),
		Req:  binary.BigEndian.Uint64(hdr[2:10]),
	}
	size := binary.BigEndian.Uint32(hdr[10:14])
	if size > maxFramePayload {
		return frame{}, fmt.Errorf("control: %v frame of %d bytes exceeds limit", f.Type, size)
	}
	f.Payload = make([]byte, size)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return frame{}, err
	}
	return f, nil
}

// PrepareRequest admits one session before any data connection is dialed.
type PrepareRequest struct {
	Session core.SessionID `json:"session"`
	// Reservation is the pooled-buffer byte budget the session asks the
	// agent's engine for (core.Options.PoolReservation).
	Reservation int64 `json:"reservation"`
	// Class names the session's priority class (e.g. core.ClassBulk,
	// core.ClassInteractive): it orders the agent's admission queue and
	// weights the session's data-plane scheduling quanta. Empty behaves
	// as weight 1.
	Class string `json:"class,omitempty"`
}

// PrepareReply reports the agent's shared data address for an admitted
// session.
type PrepareReply struct {
	DataAddr string `json:"data_addr"`
	// Queued reports that admission parked the session before accepting.
	Queued bool `json:"queued,omitempty"`
}

// QueuedNotice is the interim FrameQueued payload: admission parked the
// session; a final PREPARED or ERROR follows by WaitMs at the latest.
type QueuedNotice struct {
	WaitMs int64 `json:"wait_ms"`
}

// SinkSpec names the destination of the broadcast payload on the agent.
// Path writes a file; Command pipes the stream through `sh -c`. At most
// one may be set; neither discards.
type SinkSpec struct {
	Path    string `json:"path,omitempty"`
	Command string `json:"command,omitempty"`
}

// StartRequest launches a prepared session's node.
type StartRequest struct {
	Session core.SessionID `json:"session"`
	Index   int            `json:"index"`
	Peers   []core.Peer    `json:"peers"`
	Opts    core.Options   `json:"opts"`
	Output  SinkSpec       `json:"output,omitempty"`
	// Topology selects the dissemination shape (core.Plan.Topology): "" /
	// "chain" for the linear pipeline, "tree:<k>" for the k-ary BFS tree.
	// Every agent must run the same shape, so it travels with the plan.
	Topology string `json:"topology,omitempty"`
}

// ResultReply is the terminal state of one started session.
type ResultReply struct {
	Err    string       `json:"err,omitempty"`
	Report *core.Report `json:"report,omitempty"`
	Bytes  uint64       `json:"bytes,omitempty"`
}

// JoinRequest asks the agent to enter a live broadcast as a late peer.
// The session's options, transport and topology are NOT carried here: the
// agent learns them from the sender's JOININFO descriptor during the
// graft negotiation, so the joiner always runs the session's real shape.
type JoinRequest struct {
	Session core.SessionID `json:"session"`
	// SenderAddr is the data address of the session's node 0, where the
	// RoleJoin negotiation is played.
	SenderAddr string `json:"sender_addr"`
	// Name is the joiner's peer name in reports and the member table.
	Name   string   `json:"name"`
	Output SinkSpec `json:"output,omitempty"`
}

// JoinedReply reports a landed graft. The joiner node keeps running; its
// terminal FrameResult arrives on the same request ID when it finishes.
type JoinedReply struct {
	// Index is the joiner's assigned pipeline index.
	Index int `json:"index"`
	// Head is the catch-up boundary: live data flows from here, [0, Head)
	// is backfilled from the sender.
	Head uint64 `json:"head"`
	// Peers is the membership size at admission (joiner included).
	Peers int `json:"peers"`
}

// StatusRequest asks for the agent's current state.
type StatusRequest struct{}

// SessionStatus is one control-channel session's state in a STATS reply.
type SessionStatus struct {
	Session core.SessionID `json:"session"`
	// State is "prepared" or "running".
	State string `json:"state"`
	// LeaseMs is the remaining lease time in milliseconds.
	LeaseMs int64 `json:"lease_ms"`
}

// MemoryStats is the agent process's Go heap as the runtime reports it
// (runtime/metrics), read when the STATUS request arrives.
type MemoryStats struct {
	// HeapLive is the heap the last collection marked live
	// (/gc/heap/live:bytes).
	HeapLive uint64 `json:"heap_live"`
	// HeapGoal is the heap size at which the next collection is due to
	// finish (/gc/heap/goal:bytes).
	HeapGoal uint64 `json:"heap_goal"`
	// GCPercent is the collector's pacing target, GOGC
	// (/gc/gogc:percent); -1 when the collector is off.
	GCPercent int64 `json:"gc_percent"`
	// GCCycles counts the collections completed since the process started
	// (/gc/cycles/total:gc-cycles).
	GCCycles uint64 `json:"gc_cycles"`
}

// StatsReply answers FrameStatus.
type StatsReply struct {
	Engine   core.EngineStats `json:"engine"`
	Sessions []SessionStatus  `json:"sessions,omitempty"`
	Memory   MemoryStats      `json:"memory"`
}

// ReleaseRequest withdraws one session.
type ReleaseRequest struct {
	Session core.SessionID `json:"session"`
}

// ReleasedReply answers FrameRelease.
type ReleasedReply struct {
	// Known reports whether the agent had the session at all.
	Known bool `json:"known"`
}

// HeartbeatRequest renews the leases of every named session.
type HeartbeatRequest struct {
	Sessions []core.SessionID `json:"sessions"`
}

// HeartbeatAck lists the sessions the agent does NOT hold (already
// finished, lease-expired, or never prepared) so the client can stop
// heartbeating them.
type HeartbeatAck struct {
	Unknown []core.SessionID `json:"unknown,omitempty"`
}

// Error codes carried by FrameError payloads.
const (
	// CodeAdmissionRefused: the engine refused the session outright.
	CodeAdmissionRefused = "admission-refused"
	// CodeAdmissionTimeout: the session queued and its deadline passed.
	CodeAdmissionTimeout = "admission-timeout"
	// CodeBadRequest: malformed or out-of-order request (e.g. START
	// without PREPARE).
	CodeBadRequest = "bad-request"
	// CodeInternal: the agent failed serving a well-formed request.
	CodeInternal = "internal"

	// Membership codes, shared verbatim with core.MembershipErrorCode so
	// both ends agree without string-matching error text.
	//
	// CodeSessionEnded: the broadcast already closed its ring (or aborted).
	CodeSessionEnded = "session-ended"
	// CodeJoinRefused: the planner refused the graft (typed reason in the
	// message).
	CodeJoinRefused = "join-refused"
	// CodeCatchUpEvicted: the joiner's pending catch-up range was evicted
	// at the source.
	CodeCatchUpEvicted = "catch-up-evicted"
)

// ErrorReply is the FrameError payload.
type ErrorReply struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorFor converts an ErrorReply into the error the client surfaces:
// admission codes become the typed *core.AdmissionError senders match on,
// and membership codes rebuild core's typed membership errors
// (ErrSessionEnded, *JoinRefusedError, ErrCatchUpEvicted) — the code is
// the contract, never the message text.
func (e ErrorReply) errorFor(sid core.SessionID) error {
	switch e.Code {
	case CodeAdmissionRefused:
		return &core.AdmissionError{Session: sid, Reason: e.Message}
	case CodeAdmissionTimeout:
		return &core.AdmissionError{Session: sid, Reason: e.Message, Queued: true}
	}
	if err, ok := core.MembershipErrorFromCode(e.Code, e.Message); ok {
		return err
	}
	return fmt.Errorf("control: agent error (%s): %s", e.Code, e.Message)
}
