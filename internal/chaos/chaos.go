// Package chaos is a deterministic fault-injection engine for the Kascade
// protocol (§III-D of the paper): it executes scripted or seeded fault
// schedules — node crash, restart, symmetric and asymmetric partitions,
// rate collapse, write stall, slow receiver — against a real broadcast
// running over transport.Fabric, and asserts the recovery invariants the
// paper claims: bit-perfect delivery on every survivor, correct victim
// naming in the ring report, and bounded recovery time.
//
// Faults fire at byte-offset marks (observed through the engine's trace
// seam, core.Tracer, never by sleeping) or at wall-clock marks. A schedule
// is reproducible from a single seed: chaos.Generate derives randomized
// schedules, chaos.Matrix sweeps {node count × fault kind} clusters, and a
// failing scenario prints the exact `-chaos.seed` command that replays it.
package chaos

import (
	"fmt"
	"regexp"
	"strings"
	"time"
)

// FaultKind enumerates the injectable faults.
type FaultKind string

const (
	// Crash kills the victim host permanently: listeners close, live
	// connections reset, dials refused (transport.Fabric.Kill).
	Crash FaultKind = "crash"
	// Restart crashes the victim and revives it Delay later: the fabric
	// host comes back and a fresh node with the same pipeline index
	// re-runs. Depending on how fast the predecessor's detector fired,
	// the reborn node is either re-adopted (resuming via FORGET/PGET at
	// a file-backed source) or stays routed around.
	Restart FaultKind = "restart"
	// Partition cuts both directions between the victim and Peer; bytes
	// stall and dials are refused until Delay heals it (0 = permanent).
	Partition FaultKind = "partition"
	// AsymPartition cuts only the Peer->victim direction: the victim
	// falls silent downstream while its own frames still flow upstream.
	AsymPartition FaultKind = "asym-partition"
	// RateCollapse reshapes the Peer->victim link to Rate bytes/s on the
	// LIVE connection, restoring the scenario link rate after Delay.
	RateCollapse FaultKind = "rate-collapse"
	// WriteStall pauses existing Peer->victim connections (no bytes move,
	// no error) for Delay; fresh dials — liveness probes — still succeed,
	// exercising the §III-D1 slow-but-alive discipline.
	WriteStall FaultKind = "write-stall"
	// SlowSink throttles the victim's local sink to Rate bytes/s for
	// Delay (0 = rest of the run): the slow-receiver case.
	SlowSink FaultKind = "slow-sink"
	// SinkCrash makes the victim's local sink fail the write that crosses
	// the byte mark: the node abandons and detaches, a session-scoped
	// death. Unlike Crash it kills one session's node, not the host — on
	// shared engines the host keeps serving its other sessions, which is
	// what the cross-session scenarios (Sessions > 1) exercise.
	SinkCrash FaultKind = "sink-crash"
)

// Mark is a fault trigger: a byte-offset watch on one node's ingested
// bytes, a re-ranking migration watch, a wall-clock delay from transfer
// start, or (zero value) right at start. Byte and reorg marks are observed
// through the trace seam, so they fire on the exact chunk boundary or
// migration that crosses them.
type Mark struct {
	// Node is the pipeline index whose ingress is watched (byte marks).
	Node int `json:"node,omitempty"`
	// Bytes triggers once Node has ingested at least this many bytes.
	Bytes uint64 `json:"bytes,omitempty"`
	// Reorg triggers on the first re-ranking migration (the sender's
	// TraceReorg event) — mid-graft by construction: the new parent has
	// not yet adopted the re-homed children when the fault lands.
	Reorg bool `json:"reorg,omitempty"`
	// After triggers this long after the session starts (used when
	// Bytes is 0).
	After time.Duration `json:"after,omitempty"`
}

func (m Mark) String() string {
	if m.Reorg {
		return "on the first re-ranking migration"
	}
	if m.Bytes > 0 {
		return fmt.Sprintf("when node %d reached %d B", m.Node, m.Bytes)
	}
	if m.After > 0 {
		return fmt.Sprintf("at t+%v", m.After)
	}
	return "at start"
}

// Victim sentinels for reorg-mark faults: the concrete pipeline index is
// only known when the migration fires, so the schedule names a role and
// the runner resolves it from the TraceReorg event at injection time.
const (
	// ReorgDemoted targets the node being demoted to a leaf slot — the
	// migrating node, killed while its children re-graft away from it.
	ReorgDemoted = -2
	// ReorgPromoted targets the node promoted into the vacated interior
	// slot — the re-homed children's new parent, killed mid-adoption.
	ReorgPromoted = -3
)

// Fault is one scheduled injection.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// Victim is the pipeline index the fault targets (never 0).
	Victim int `json:"victim"`
	// Peer is the other endpoint for link faults; -1 selects the victim's
	// schedule-time upstream neighbour (Victim-1).
	Peer int `json:"peer,omitempty"`
	// When triggers the injection.
	When Mark `json:"when"`
	// Delay is the heal/revive/resume delay after injection; 0 means the
	// fault is permanent (or, for SlowSink, lasts the whole run).
	Delay time.Duration `json:"delay,omitempty"`
	// Rate parameterises RateCollapse and SlowSink, in bytes/second.
	Rate float64 `json:"rate,omitempty"`
}

// peerIndex resolves the link-fault counterpart.
func (f Fault) peerIndex() int {
	if f.Peer >= 0 {
		return f.Peer
	}
	return f.Victim - 1
}

func (f Fault) String() string {
	var b strings.Builder
	switch f.Victim {
	case ReorgDemoted:
		fmt.Fprintf(&b, "%s on the demoted node", f.Kind)
	case ReorgPromoted:
		fmt.Fprintf(&b, "%s on the promoted node", f.Kind)
	default:
		fmt.Fprintf(&b, "%s on node %d", f.Kind, f.Victim)
	}
	switch f.Kind {
	case Partition, AsymPartition, RateCollapse, WriteStall:
		fmt.Fprintf(&b, " (link from node %d)", f.peerIndex())
	}
	fmt.Fprintf(&b, " %s", f.When)
	if f.Delay > 0 {
		fmt.Fprintf(&b, ", healed after %v", f.Delay)
	}
	if f.Rate > 0 {
		fmt.Fprintf(&b, ", rate %.0f B/s", f.Rate)
	}
	return b.String()
}

// JoinSpec schedules one late joiner: a fresh host grafted onto the
// live broadcast through the session's Join verb when the mark fires.
// Join scenarios need Rerank, a tree Topology and a file-backed source
// (Stream false) — the preconditions of the dynamic-membership protocol;
// a join landing after the broadcast ended is a refusal, not a crash,
// and Check accepts it unless the scenario demands a MinGrafted floor.
type JoinSpec struct {
	// When triggers the join (byte-offset or reorg marks, observed
	// through the trace seam like fault marks).
	When Mark `json:"when"`
	// CrashAt kills the joiner's host once the joiner has ingested this
	// many bytes (catch-up backfill and live chunks both count); 0 lets
	// it live to completion. A crashed joiner must be named in the ring
	// report unless it finished first — the same invariant as Crash.
	CrashAt uint64 `json:"crash_at,omitempty"`
}

func (j JoinSpec) String() string {
	s := fmt.Sprintf("late join %s", j.When)
	if j.CrashAt > 0 {
		s += fmt.Sprintf(", joiner crashed at %d B ingested", j.CrashAt)
	}
	return s
}

// Scenario is one self-contained chaos run: pipeline shape, payload,
// pacing and fault schedule. Scenarios are plain data so a failing one can
// be printed and replayed verbatim.
type Scenario struct {
	Name string `json:"name"`
	// Seed is the generator seed that produced the schedule (0 for the
	// handcrafted matrix clusters).
	Seed  int64 `json:"seed,omitempty"`
	Nodes int   `json:"nodes"`
	// PayloadSize is the broadcast size in bytes.
	PayloadSize int64 `json:"payload_size"`
	ChunkSize   int   `json:"chunk_size"`
	// WindowChunks is the per-node replay window.
	WindowChunks int `json:"window_chunks"`
	// Stream selects the streamed source (abandon cascade on FORGET)
	// instead of the file-backed one (gap fetches always succeed).
	Stream bool `json:"stream,omitempty"`
	// Sessions > 1 selects the cross-session harness: every host runs one
	// shared core.Engine (single data port) carrying this many overlapping
	// broadcasts; faults apply to session 1 only, and Check additionally
	// demands the sibling sessions' delivery and latency are undisturbed.
	Sessions int `json:"sessions,omitempty"`
	// LinkRate paces every fabric link (bytes/s) so byte marks land
	// mid-transfer; 0 leaves links unshaped.
	LinkRate float64 `json:"link_rate,omitempty"`
	// MinThroughput enables the §V exclusion extension in the engine.
	MinThroughput float64 `json:"min_throughput,omitempty"`
	// Topology selects the dissemination shape (core.Plan.Topology): "" /
	// "chain" for the linear pipeline, "tree:<k>" for the k-ary BFS tree.
	// Tree scenarios exercise the parent/children generalisation of the
	// §III-D recovery path: a crashed interior node's children re-graft
	// onto its parent.
	Topology string `json:"topology,omitempty"`
	// Rerank enables Snow-style self-reorganization (core Options.Rerank)
	// at chaos-speed cadence; requires a tree Topology. Faults may then
	// use reorg marks and the ReorgDemoted/ReorgPromoted sentinels.
	Rerank bool `json:"rerank,omitempty"`
	// MinMigrations / MaxMigrations bound the executed migration count
	// Check accepts on a Rerank run: the floor proves the scenario's slow
	// link actually provoked a re-ranking (a reorg-mark fault that never
	// fires would otherwise pass vacuously), the ceiling proves hysteresis
	// kept the tree from thrashing. Zero leaves the respective side open.
	MinMigrations int `json:"min_migrations,omitempty"`
	MaxMigrations int `json:"max_migrations,omitempty"`
	// Joins schedules late joiners (dynamic membership); requires Rerank,
	// a tree Topology and a file-backed source. Single-session only.
	Joins []JoinSpec `json:"joins,omitempty"`
	// MinGrafted is the minimum number of Joins that must actually graft
	// (a refusal-only run would otherwise pass the join invariants
	// vacuously). Zero leaves the floor open — generated schedules use
	// that, since a randomly late mark may legitimately be refused.
	MinGrafted int `json:"min_grafted,omitempty"`
	// Timeout is the hard scenario budget (bounded-recovery assertion);
	// defaulted by Run when 0.
	Timeout time.Duration `json:"timeout,omitempty"`
	Faults  []Fault       `json:"faults"`
}

// Schedule renders the fault and join schedule, one line per entry.
func (sc Scenario) Schedule() string {
	if len(sc.Faults) == 0 && len(sc.Joins) == 0 {
		return "  (no faults)"
	}
	var lines []string
	for _, f := range sc.Faults {
		lines = append(lines, "  "+f.String())
	}
	for _, j := range sc.Joins {
		lines = append(lines, "  "+j.String())
	}
	return strings.Join(lines, "\n")
}

// Repro returns the command that reruns the failing case, then the
// schedule, for failure messages. pkg is the package of the test that ran
// the scenario, test that test's t.Name(), and flags whatever else the case
// needs, such as "-chaos.seed=1".
func (sc Scenario) Repro(pkg, test string, flags ...string) string {
	cmd := append([]string{"go test", pkg, "-race -run", "'" + runPattern(test) + "'"}, flags...)
	return fmt.Sprintf(
		"reproduce: %s\nschedule (%d nodes, %d B payload, %d B chunks, window %d, stream=%v):\n%s",
		strings.Join(cmd, " "), sc.Nodes, sc.PayloadSize, sc.ChunkSize, sc.WindowChunks, sc.Stream, sc.Schedule())
}

// runPattern returns the go test -run pattern that selects exactly the
// test named name, as t.Name() prints it: each slash-separated element,
// one level of subtests, is matched whole and literally.
func runPattern(name string) string {
	elems := strings.Split(name, "/")
	for i, e := range elems {
		elems[i] = "^" + regexp.QuoteMeta(e) + "$"
	}
	return strings.Join(elems, "/")
}

// victims returns the distinct fault targets, in schedule order.
// Reorg sentinels are excluded — their concrete index is only known
// at injection time, so Check folds them in from the recorded injections.
func (sc Scenario) victims() []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range sc.Faults {
		if f.Victim < 0 {
			continue
		}
		if !seen[f.Victim] {
			seen[f.Victim] = true
			out = append(out, f.Victim)
		}
	}
	return out
}
