package control

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"kascade/internal/core"
)

// ClientOptions tunes the sender side of one control channel.
type ClientOptions struct {
	// HeartbeatInterval paces lease renewals for every session live on
	// this channel. 0 selects the default (2 s); negative disables the
	// automatic loop (tests drive Heartbeat by hand).
	HeartbeatInterval time.Duration
	// Clock is the client's time source. Nil selects the system clock.
	Clock core.Clock
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = core.SystemClock()
	}
	return o
}

// Client is the sender's end of one control channel: exactly one
// connection per agent, multiplexing every concurrent session this sender
// runs through that agent. All methods are safe for concurrent use; calls
// for different sessions interleave freely on the wire.
type Client struct {
	conn net.Conn
	opts ClientOptions
	clk  core.Clock

	wmu sync.Mutex // serialises frame writes

	mu      sync.Mutex
	nextReq uint64
	pending map[uint64]chan frame
	live    map[core.SessionID]bool // sessions whose leases we renew
	err     error                   // terminal channel error

	done      chan struct{} // closed when the read loop exits
	closeOnce sync.Once
}

// Dial opens the control channel to an agent.
func Dial(addr string, timeout time.Duration, opts ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn, opts), nil
}

// NewClient wraps an established connection as a control channel and
// starts its read and heartbeat loops.
func NewClient(conn net.Conn, opts ClientOptions) *Client {
	o := opts.withDefaults()
	c := &Client{
		conn:    conn,
		opts:    o,
		clk:     o.Clock,
		pending: make(map[uint64]chan frame),
		live:    make(map[core.SessionID]bool),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	if o.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// Close tears the channel down. Sessions still live on the agent lose
// their leases and are killed there.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.conn.Close() })
	return err
}

// Err reports the channel's terminal error, if the read loop has ended.
func (c *Client) Err() error {
	select {
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err
	default:
		return nil
	}
}

func (c *Client) readLoop() {
	var err error
	for {
		var f frame
		f, err = readFrame(c.conn)
		if err != nil {
			break
		}
		c.mu.Lock()
		ch := c.pending[f.Req]
		c.mu.Unlock()
		if ch == nil {
			continue // reply to an abandoned request
		}
		select {
		case ch <- f:
		default:
			// A slow waiter's buffer is full; drop rather than stall the
			// whole channel (the waiter already has a final frame queued).
		}
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("control: channel to %s down: %w", c.conn.RemoteAddr(), err)
	}
	c.mu.Unlock()
	close(c.done)
	_ = c.Close()
}

// call registers a new request and writes its frame.
func (c *Client) call(typ FrameType, payload any) (uint64, chan frame, error) {
	c.mu.Lock()
	c.nextReq++
	req := c.nextReq
	ch := make(chan frame, 4)
	c.pending[req] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeFrame(c.conn, typ, req, payload)
	c.wmu.Unlock()
	if err != nil {
		c.forget(req)
		return 0, nil, err
	}
	return req, ch, nil
}

func (c *Client) forget(req uint64) {
	c.mu.Lock()
	delete(c.pending, req)
	c.mu.Unlock()
}

// await reads frames for req until a final one arrives. Interim QUEUED
// notices are folded into the queued flag.
func (c *Client) await(ctx context.Context, req uint64, ch chan frame) (frame, bool, error) {
	queued := false
	for {
		select {
		case f := <-ch:
			if f.Type == FrameQueued {
				queued = true
				continue
			}
			c.forget(req)
			return f, queued, nil
		case <-c.done:
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return frame{}, queued, err
		case <-ctx.Done():
			c.forget(req)
			return frame{}, queued, ctx.Err()
		}
	}
}

// Prepare admits one session on the agent and returns its shared data
// address. It blocks while the agent's admission queue holds the session
// (the reply notes that with Queued); a refusal or queue timeout returns
// the typed *core.AdmissionError, before any data connection is dialed.
func (c *Client) Prepare(ctx context.Context, req PrepareRequest) (*PrepareReply, error) {
	id, ch, err := c.call(FramePrepare, req)
	if err != nil {
		return nil, err
	}
	f, queued, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, err
	}
	switch f.Type {
	case FramePrepared:
		var rep PrepareReply
		if err := f.decode(&rep); err != nil {
			return nil, err
		}
		rep.Queued = rep.Queued || queued
		c.mu.Lock()
		c.live[req.Session] = true
		c.mu.Unlock()
		return &rep, nil
	case FrameError:
		var er ErrorReply
		if err := f.decode(&er); err != nil {
			return nil, err
		}
		return nil, er.errorFor(req.Session)
	default:
		return nil, fmt.Errorf("control: unexpected %v reply to PREPARE", f.Type)
	}
}

// Pending is a started session's future result.
type Pending struct {
	c   *Client
	sid core.SessionID
	req uint64
	ch  chan frame
}

// Start launches a prepared session's node on the agent. The returned
// Pending resolves when the broadcast finishes; other frames keep flowing
// on the channel meanwhile.
func (c *Client) Start(req StartRequest) (*Pending, error) {
	id, ch, err := c.call(FrameStart, req)
	if err != nil {
		return nil, err
	}
	return &Pending{c: c, sid: req.Session, req: id, ch: ch}, nil
}

// Wait blocks until the session's result arrives. A context expiry does
// NOT stop the session's heartbeats: the broadcast is still running on the
// agent and dropping the lease would kill it; only a final frame (the
// session is over either way) prunes it from the renewal set.
func (p *Pending) Wait(ctx context.Context) (*ResultReply, error) {
	f, _, err := p.c.await(ctx, p.req, p.ch)
	if err != nil {
		return nil, err
	}
	p.c.mu.Lock()
	delete(p.c.live, p.sid)
	p.c.mu.Unlock()
	switch f.Type {
	case FrameResult:
		var res ResultReply
		if err := f.decode(&res); err != nil {
			return nil, err
		}
		return &res, nil
	case FrameError:
		var er ErrorReply
		if err := f.decode(&er); err != nil {
			return nil, err
		}
		return nil, er.errorFor(p.sid)
	default:
		return nil, fmt.Errorf("control: unexpected %v reply to START", f.Type)
	}
}

// Join asks the agent to enter a live broadcast as a late peer. It
// blocks until the graft lands (JOINED) or fails — failures surface as
// the typed membership errors (core.ErrSessionEnded,
// *core.JoinRefusedError) or *core.AdmissionError, rebuilt from the
// frame's status code. On success the joiner node keeps running on the
// agent under the channel's lease renewals; the returned Pending
// resolves with its terminal result.
func (c *Client) Join(ctx context.Context, req JoinRequest) (*JoinedReply, *Pending, error) {
	id, ch, err := c.call(FrameJoin, req)
	if err != nil {
		return nil, nil, err
	}
	// Two replies ride this request ID (JOINED now, RESULT at the end),
	// so the graft wait must not retire the request like await does.
	for {
		select {
		case f := <-ch:
			switch f.Type {
			case FrameQueued:
				continue
			case FrameJoined:
				var rep JoinedReply
				if err := f.decode(&rep); err != nil {
					c.forget(id)
					return nil, nil, err
				}
				c.mu.Lock()
				c.live[req.Session] = true
				c.mu.Unlock()
				return &rep, &Pending{c: c, sid: req.Session, req: id, ch: ch}, nil
			case FrameError:
				c.forget(id)
				var er ErrorReply
				if err := f.decode(&er); err != nil {
					return nil, nil, err
				}
				return nil, nil, er.errorFor(req.Session)
			default:
				c.forget(id)
				return nil, nil, fmt.Errorf("control: unexpected %v reply to JOIN", f.Type)
			}
		case <-c.done:
			c.mu.Lock()
			cerr := c.err
			c.mu.Unlock()
			return nil, nil, cerr
		case <-ctx.Done():
			c.forget(id)
			return nil, nil, ctx.Err()
		}
	}
}

// Status snapshots the agent's engine stats and control-session table.
func (c *Client) Status(ctx context.Context) (*StatsReply, error) {
	id, ch, err := c.call(FrameStatus, StatusRequest{})
	if err != nil {
		return nil, err
	}
	f, _, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, err
	}
	if f.Type != FrameStats {
		return nil, fmt.Errorf("control: unexpected %v reply to STATUS", f.Type)
	}
	var rep StatsReply
	if err := f.decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Release withdraws one session: queued admissions are cancelled, running
// nodes killed. It reports whether the agent still knew the session.
func (c *Client) Release(ctx context.Context, sid core.SessionID) (bool, error) {
	c.mu.Lock()
	delete(c.live, sid)
	c.mu.Unlock()
	id, ch, err := c.call(FrameRelease, ReleaseRequest{Session: sid})
	if err != nil {
		return false, err
	}
	f, _, err := c.await(ctx, id, ch)
	if err != nil {
		return false, err
	}
	if f.Type != FrameReleased {
		return false, fmt.Errorf("control: unexpected %v reply to RELEASE", f.Type)
	}
	var rep ReleasedReply
	if err := f.decode(&rep); err != nil {
		return false, err
	}
	return rep.Known, nil
}

// Heartbeat renews the leases of the given sessions (nil means every
// session currently live on this channel) and prunes sessions the agent
// no longer holds from the automatic renewal set.
func (c *Client) Heartbeat(ctx context.Context, sessions []core.SessionID) (*HeartbeatAck, error) {
	if sessions == nil {
		c.mu.Lock()
		for sid := range c.live {
			sessions = append(sessions, sid)
		}
		c.mu.Unlock()
	}
	if len(sessions) == 0 {
		return &HeartbeatAck{}, nil
	}
	id, ch, err := c.call(FrameHeartbeat, HeartbeatRequest{Sessions: sessions})
	if err != nil {
		return nil, err
	}
	f, _, err := c.await(ctx, id, ch)
	if err != nil {
		return nil, err
	}
	if f.Type != FrameHeartbeatAck {
		return nil, fmt.Errorf("control: unexpected %v reply to HEARTBEAT", f.Type)
	}
	var ack HeartbeatAck
	if err := f.decode(&ack); err != nil {
		return nil, err
	}
	c.mu.Lock()
	for _, sid := range ack.Unknown {
		delete(c.live, sid)
	}
	c.mu.Unlock()
	return &ack, nil
}

// heartbeatLoop renews every live session's lease on a fixed cadence
// until the channel dies.
func (c *Client) heartbeatLoop() {
	for {
		t := c.clk.NewTimer(c.opts.HeartbeatInterval)
		select {
		case <-t.C():
		case <-c.done:
			t.Stop()
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.HeartbeatInterval)
		_, err := c.Heartbeat(ctx, nil)
		cancel()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
				// Transient (e.g. a slow agent missed the deadline): the
				// next beat retries; the lease TTL absorbs a few misses.
			}
		}
	}
}
