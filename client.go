package rex

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/rex-data/rex/internal/cluster"
	"github.com/rex-data/rex/internal/exec"
	"github.com/rex-data/rex/internal/srvproto"
	"github.com/rex-data/rex/internal/types"
)

// ServerStats is the rexd server's counter snapshot: sessions admitted,
// queries run and rejected, plan-cache hits/misses/compiles, standing
// rounds. Reported in Session.Stats on server sessions and by the server's
// /stats HTTP endpoint.
type ServerStats = srvproto.ServerStats

// handshakeTimeout bounds the hello exchange when the dialing context
// carries no deadline of its own.
const handshakeTimeout = 30 * time.Second

// serverConn is a client session's connection to a rexd server: one
// socket multiplexing every request the session issues. A write mutex
// serializes outgoing frames; a demux read loop routes incoming frames
// to their request by the echoed id. Data-carrying requests feed a
// remote ResultStream (so Query/Stream/Subscribe hand back the same
// stream type an in-process run does); single-reply requests park on a
// buffered channel.
type serverConn struct {
	nc       net.Conn
	nodes    int
	readDone chan struct{}

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[int]*srvPending
	nextID  int
	closed  bool
	err     error // terminal connection error, nil on deliberate close
}

// srvPending routes one in-flight request's reply frames. Exactly one of
// feeder/reply is set.
type srvPending struct {
	feeder  *exec.StreamFeeder
	onRound func(RoundStats)
	reply   chan cluster.Message
}

// dialServer connects and performs the hello exchange, announcing the
// session's default tenant.
func dialServer(ctx context.Context, addr, tenant string) (*serverConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rex: dial server %s: %w", addr, err)
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(handshakeTimeout)
	}
	_ = nc.SetDeadline(deadline)
	hello := cluster.Message{Kind: cluster.MsgHello, Payload: srvproto.EncodeJSON(srvproto.Hello{Version: srvproto.Version, Tenant: tenant})}
	if err := srvproto.WriteMsg(nc, hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	m, err := srvproto.ReadMsg(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	if m.Kind != cluster.MsgHello {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: unexpected frame kind %d", m.Kind)
	}
	var w srvproto.Welcome
	if err := json.Unmarshal(m.Payload, &w); err != nil {
		nc.Close()
		return nil, fmt.Errorf("rex: server handshake: %w", err)
	}
	if !w.OK {
		nc.Close()
		return nil, srvproto.Rehydrate(w.Code, w.Err)
	}
	_ = nc.SetDeadline(time.Time{})
	c := &serverConn{
		nc:       nc,
		nodes:    w.Nodes,
		readDone: make(chan struct{}),
		pending:  map[int]*srvPending{},
	}
	go c.readLoop(br)
	return c, nil
}

// register allocates a request id for a pending entry.
func (c *serverConn) register(p *srvPending) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		if c.err != nil {
			return 0, fmt.Errorf("rex: server connection lost: %w", c.err)
		}
		return 0, ErrSessionClosed
	}
	c.nextID++
	c.pending[c.nextID] = p
	return c.nextID, nil
}

func (c *serverConn) unregister(id int) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// write sends one frame under the write mutex.
func (c *serverConn) write(m cluster.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return srvproto.WriteMsg(c.nc, m)
}

// sendReq ships a request frame; on a write failure the pending entry is
// withdrawn (the read loop will observe the broken socket shortly). The
// request's priority rides the frame header too, so the server can
// classify it before decoding the JSON body.
func (c *serverConn) sendReq(id int, req srvproto.Request) error {
	m := cluster.Message{Kind: cluster.MsgQuery, Edge: id, Payload: srvproto.EncodeJSON(req)}
	if req.Opts != nil {
		m.Priority = req.Opts.Priority
	}
	err := c.write(m)
	if err != nil {
		c.unregister(id)
		return fmt.Errorf("rex: send to server: %w", err)
	}
	return nil
}

// cancelReq asks the server to abort an in-flight request; best-effort —
// the addressed request always ends with its own terminal frame.
func (c *serverConn) cancelReq(id int) {
	_ = c.write(cluster.Message{Kind: cluster.MsgQuery, Payload: srvproto.EncodeJSON(srvproto.Request{Op: srvproto.OpCancel, Target: id})})
}

// readLoop demultiplexes server frames to their pending requests until
// the connection dies.
func (c *serverConn) readLoop(br *bufio.Reader) {
	defer close(c.readDone)
	for {
		m, err := srvproto.ReadMsg(br)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		p := c.pending[m.Edge]
		if m.Kind == cluster.MsgErr || m.Closed {
			delete(c.pending, m.Edge)
		}
		c.mu.Unlock()
		if p == nil {
			continue // reply to a cancelled/abandoned request
		}
		if p.reply != nil {
			if m.Kind == cluster.MsgErr || m.Closed {
				select {
				case p.reply <- m:
				default:
				}
			}
			continue
		}
		c.deliverStream(p, m)
	}
}

// deliverStream routes one frame of a data-carrying request into its
// remote stream.
func (c *serverConn) deliverStream(p *srvPending, m cluster.Message) {
	switch m.Kind {
	case cluster.MsgErr:
		p.feeder.Finish(nil, srvproto.Rehydrate(m.Count, m.Table))
	case cluster.MsgRows:
		if len(m.Payload) > 0 {
			ds, err := cluster.DecodeDeltas(m.Payload)
			if err != nil {
				// Corrupt framing poisons the whole connection, not just
				// this request — nothing after it can be trusted.
				c.fail(fmt.Errorf("rex: server stream decode: %w", err))
				c.nc.Close()
				return
			}
			p.feeder.Push(exec.StreamBatch{Stratum: m.Stratum, Round: m.Count, Deltas: ds})
		}
		if m.Terminate && p.onRound != nil {
			if tr, err := parseTrailer(m); err == nil && tr.Round != nil {
				p.onRound(*tr.Round)
			}
		}
		if m.Closed {
			tr, err := parseTrailer(m)
			if err != nil {
				p.feeder.Finish(nil, err)
				return
			}
			res := tr.Result
			if res == nil {
				res = &exec.Result{}
			}
			p.feeder.Finish(res, nil)
		}
	}
}

func parseTrailer(m cluster.Message) (*srvproto.Trailer, error) {
	var tr srvproto.Trailer
	if m.Table != "" {
		if err := json.Unmarshal([]byte(m.Table), &tr); err != nil {
			return nil, fmt.Errorf("rex: server trailer: %w", err)
		}
	}
	return &tr, nil
}

// fail terminates every pending request with err (connection lost).
func (c *serverConn) fail(err error) {
	c.mu.Lock()
	if c.closed && c.err == nil {
		// Deliberate close racing the read loop's socket error: report
		// the close, not the wreckage it caused.
		err = ErrSessionClosed
	}
	if !c.closed {
		c.closed = true
		c.err = err
	}
	pend := c.pending
	c.pending = map[int]*srvPending{}
	c.mu.Unlock()
	for _, p := range pend {
		if p.feeder != nil {
			p.feeder.Finish(nil, err)
		}
		if p.reply != nil {
			select {
			case p.reply <- cluster.Message{Kind: cluster.MsgErr, Count: srvproto.CodeFor(err), Table: err.Error()}:
			default:
			}
		}
	}
}

// close shuts the connection down; pending requests fail with
// ErrSessionClosed.
func (c *serverConn) close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.readDone
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.nc.Close()
	<-c.readDone // readLoop fails the stragglers with ErrSessionClosed
	return nil
}

// roundTrip issues a single-reply request and parses its trailer.
func (c *serverConn) roundTrip(ctx context.Context, req srvproto.Request) (*srvproto.Trailer, error) {
	p := &srvPending{reply: make(chan cluster.Message, 1)}
	id, err := c.register(p)
	if err != nil {
		return nil, err
	}
	if err := c.sendReq(id, req); err != nil {
		return nil, err
	}
	select {
	case m := <-p.reply:
		if m.Kind == cluster.MsgErr {
			return nil, srvproto.Rehydrate(m.Count, m.Table)
		}
		return parseTrailer(m)
	case <-ctx.Done():
		c.cancelReq(id)
		return nil, ctx.Err()
	}
}

// openStream issues a data-carrying request and returns its remote
// stream. Closing the stream (or ctx expiring) cancels the request
// server-side; the stream always terminates with the server's final
// frame or the connection's failure.
func (c *serverConn) openStream(ctx context.Context, req srvproto.Request, onRound func(RoundStats)) (*exec.ResultStream, error) {
	p := &srvPending{onRound: onRound}
	id, err := c.register(p)
	if err != nil {
		return nil, err
	}
	st, feeder := exec.NewRemoteStream(func() { c.cancelReq(id) })
	p.feeder = feeder
	if err := c.sendReq(id, req); err != nil {
		feeder.Finish(nil, err)
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				c.cancelReq(id)
			case <-st.Done():
			}
		}()
	}
	return st, nil
}

// ingest applies base-table delta batches server-side, returning after
// every covering standing-query round completed.
func (c *serverConn) ingest(ctx context.Context, batches map[string][]types.Delta) (*srvproto.Trailer, error) {
	tables := make(map[string][]byte, len(batches))
	for table, deltas := range batches {
		enc, err := cluster.EncodeDeltas(deltas)
		if err != nil {
			return nil, err
		}
		tables[table] = enc
	}
	return c.roundTrip(ctx, srvproto.Request{Op: srvproto.OpIngest, Tables: tables})
}

// serverUnsupported rejects option fields that cannot travel to a rexd
// server: recovery is a driver-side protocol and the hook callbacks are
// Go closures.
func serverUnsupported(opts Options) error {
	if opts.Recovery != RecoveryNone {
		return fmt.Errorf("rex: server sessions do not support failure-recovery options (the server owns recovery)")
	}
	if opts.TermFn != nil || opts.OnStratum != nil {
		return fmt.Errorf("rex: server sessions do not support driver-side hooks (TermFn/OnStratum)")
	}
	return nil
}

// wireOpts extracts the wire-travelling option subset.
func wireOpts(opts Options) *srvproto.QueryOpts {
	if opts.BatchSize == 0 && opts.MaxStrata == 0 && !opts.Compaction && opts.CompactionHighWater == 0 &&
		!opts.Checkpoint && opts.Tenant == "" && opts.Priority == 0 {
		return nil
	}
	return &srvproto.QueryOpts{
		BatchSize:           opts.BatchSize,
		MaxStrata:           opts.MaxStrata,
		Compaction:          opts.Compaction,
		CompactionHighWater: opts.CompactionHighWater,
		Checkpoint:          opts.Checkpoint,
		Tenant:              opts.Tenant,
		Priority:            opts.Priority,
	}
}

// serverStream opens a streaming execution over the server connection,
// holding the session lock for the stream's life like every other
// transport (released through unlockWhenDone).
func (s *Session) serverStream(ctx context.Context, src string, args []Value, opts Options) (*DeltaStream, error) {
	if err := serverUnsupported(opts); err != nil {
		return nil, err
	}
	enc, err := srvproto.EncodeArgs(args)
	if err != nil {
		return nil, err
	}
	req := srvproto.Request{Op: srvproto.OpStream, Src: src, Args: enc, Opts: wireOpts(opts)}
	if err := s.lock(); err != nil {
		return nil, err
	}
	st, err := s.srv.openStream(ctx, req, nil)
	return s.unlockWhenDone(st, err)
}

// serverQuery is the buffered form: stream and drain, mirroring how the
// other transports execute without recovery.
func (s *Session) serverQuery(ctx context.Context, src string, args []Value, opts Options) (*Result, error) {
	st, err := s.serverStream(ctx, src, args, opts)
	if err != nil {
		return nil, err
	}
	return st.Drain()
}
