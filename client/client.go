// Package client is the Go client for votmd, the VOTM key-value server
// (internal/server, protocol in docs/PROTOCOL.md). A Client multiplexes
// requests over a small pool of TCP connections: every request carries an
// ID, in-flight requests pipeline on the same connection, and responses are
// matched back by ID — so one Client is safe (and efficient) to share
// across many goroutines.
//
// Protocol failures surface as the typed errors of package wire
// (wire.ErrNotFound, wire.ErrBusy, wire.ErrCASMismatch, ...), re-exported
// here; match them with errors.Is. Transport failures surface as ordinary
// network errors, and the broken connection is discarded and redialed on
// the next use.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"votm/wire"
)

// Typed protocol errors, re-exported from package wire for convenience.
var (
	ErrNotFound    = wire.ErrNotFound
	ErrBusy        = wire.ErrBusy
	ErrCASMismatch = wire.ErrCASMismatch
	ErrCrossShard  = wire.ErrCrossShard
	ErrBadRequest  = wire.ErrBadRequest
	ErrTooLarge    = wire.ErrTooLarge
	ErrTxFault     = wire.ErrTxFault
	ErrShutdown    = wire.ErrShutdown
)

// ErrClosed is returned by every method after Close.
var ErrClosed = errors.New("client: closed")

// Options tunes a Client. Zero values select the documented defaults.
type Options struct {
	// PoolSize is the number of pooled connections. Default 2.
	PoolSize int
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-request default applied when the caller's
	// context carries no deadline. Default 10s.
	RequestTimeout time.Duration

	// BusyRetries enables opt-in retry of BUSY responses: when the server
	// answers with wire.ErrBusy (a bounded queue is full, or a live handoff
	// is moving the shard), the request is retried up to
	// this many additional times with jittered exponential backoff. 0 (the
	// default) disables retry and surfaces ErrBusy immediately. Only BUSY
	// is retried — it is the one response that promises the request was
	// not executed.
	BusyRetries int
	// BusyBackoff is the base delay before the first BUSY retry; each
	// subsequent retry doubles it, and every wait is jittered to 50–150%
	// of nominal. Waits are context-aware. Default 2ms.
	BusyBackoff time.Duration

	// MapRetries bounds how many times a Cluster client refetches the
	// shard map and retries after a WRONG_SHARD redirect or a node
	// transport failure. Default 4. Ignored by a plain Client.
	MapRetries int
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.BusyBackoff <= 0 {
		o.BusyBackoff = 2 * time.Millisecond
	}
	if o.MapRetries <= 0 {
		o.MapRetries = 4
	}
	return o
}

// Client is a pooled votmd client. Safe for concurrent use.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	conns  []*poolConn // slot i lazily dialed; broken conns are replaced
	closed bool

	next atomic.Uint32 // round-robin slot cursor
	ids  atomic.Uint32 // request ID source, shared across conns
}

// Dial creates a Client for the server at addr and validates connectivity
// by dialing (and pinging) the first pooled connection.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	c.conns = make([]*poolConn, c.opts.PoolSize)
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.DialTimeout)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes every pooled connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, pc := range c.conns {
		if pc != nil {
			pc.close(ErrClosed)
		}
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPing})
	return err
}

// Get returns the value stored under key (ErrNotFound when absent).
func (c *Client) Get(ctx context.Context, key uint64) ([]byte, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// Put sets key to val, reporting whether the key was created (vs updated).
func (c *Client) Put(ctx context.Context, key uint64, val []byte) (created bool, err error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpPut, Key: key, Value: val})
	if err != nil {
		return false, err
	}
	return resp.Created, nil
}

// Delete removes key (ErrNotFound when absent).
func (c *Client) Delete(ctx context.Context, key uint64) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpDelete, Key: key})
	return err
}

// CAS replaces key's value with newVal iff its current value equals expect.
// On ErrCASMismatch the returned error's Detail carries the current value:
//
//	var werr *wire.Error
//	if errors.As(err, &werr) && werr.Status == wire.StatusCASMismatch {
//	    current := werr.Detail
//	}
func (c *Client) CAS(ctx context.Context, key uint64, expect, newVal []byte) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpCAS, Key: key, OldValue: expect, Value: newVal})
	return err
}

// Atomic executes subs as one transaction, regardless of which shards the
// keys hash to: the server runs a multi-shard batch as a single multi-view
// transaction (two-phase commit across the participating shard WALs when
// durability is on). The whole batch commits or none of it does.
func (c *Client) Atomic(ctx context.Context, subs []wire.Sub) ([]wire.SubResult, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpAtomic, Subs: subs})
	if err != nil {
		return nil, err
	}
	return resp.Subs, nil
}

// Add atomically adds delta (64-bit wrapping) to the counter at key,
// creating it at delta when absent, and returns the new value. It is an
// ATOMIC batch of one SubAdd; the stored value is the 8-byte little-endian
// counter, so Get decodes with binary.LittleEndian.Uint64.
func (c *Client) Add(ctx context.Context, key, delta uint64) (uint64, error) {
	subs, err := c.Atomic(ctx, []wire.Sub{{Kind: wire.SubAdd, Key: key, Delta: delta}})
	if err != nil {
		return 0, err
	}
	if len(subs) != 1 {
		return 0, fmt.Errorf("client: ADD returned %d results", len(subs))
	}
	return subs[0].Sum, nil
}

// Counter decodes an 8-byte little-endian counter value as written by Add.
func Counter(val []byte) (uint64, error) {
	if len(val) != 8 {
		return 0, fmt.Errorf("client: counter value has %d bytes, want 8", len(val))
	}
	return binary.LittleEndian.Uint64(val), nil
}

// Stats fetches one shard's statistics, or every shard's with shard ==
// wire.AllShards.
func (c *Client) Stats(ctx context.Context, shard uint32) ([]wire.ShardStats, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpStats, Shard: shard})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// do sends req, retrying BUSY responses when Options.BusyRetries is set.
// Each attempt gets its own request ID and per-attempt timeout.
func (c *Client) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	resp, err := c.doOnce(ctx, req)
	if c.opts.BusyRetries <= 0 {
		return resp, err
	}
	backoff := c.opts.BusyBackoff
	for attempt := 0; attempt < c.opts.BusyRetries && errors.Is(err, ErrBusy); attempt++ {
		// Jitter to 50–150% of nominal so synchronized clients thundering
		// against one busy shard spread out.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff)+1))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		resp, err = c.doOnce(ctx, req)
		backoff *= 2
	}
	return resp, err
}

// doOnce sends req on a pooled connection and waits for its response or ctx.
func (c *Client) doOnce(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	req.ID = c.ids.Add(1)

	pc, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	ch, err := pc.enqueue(ctx, req)
	if err != nil {
		c.discard(pc)
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, pc.failure()
		}
		if err := resp.Err(); err != nil {
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		pc.forget(req.ID)
		return nil, ctx.Err()
	}
}

// conn returns a live pooled connection, dialing lazily round-robin.
func (c *Client) conn(ctx context.Context) (*poolConn, error) {
	slot := int(c.next.Add(1)) % c.opts.PoolSize
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if pc := c.conns[slot]; pc != nil && !pc.broken() {
		c.mu.Unlock()
		return pc, nil
	}
	c.mu.Unlock()

	d := net.Dialer{Timeout: c.opts.DialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	pc := newPoolConn(nc)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		pc.close(ErrClosed)
		return nil, ErrClosed
	}
	if old := c.conns[slot]; old != nil && !old.broken() {
		// Another goroutine redialed this slot first; use theirs.
		pc.close(errors.New("client: duplicate dial"))
		return old, nil
	} else if old != nil {
		old.close(errors.New("client: connection replaced"))
	}
	c.conns[slot] = pc
	return pc, nil
}

// discard drops a broken connection from its pool slot.
func (c *Client) discard(pc *poolConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cur := range c.conns {
		if cur == pc {
			c.conns[i] = nil
		}
	}
}

// poolConn is one pooled TCP connection with a demultiplexing reader:
// writers interleave frames under wmu, the reader routes responses to the
// waiting request by ID.
type poolConn struct {
	nc net.Conn
	br *bufio.Reader // owned by readLoop

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // retained encode scratch, guarded by wmu

	mu      sync.Mutex
	waiting map[uint32]chan *wire.Response
	err     error // set once on transport failure; conn is then broken
}

func newPoolConn(nc net.Conn) *poolConn {
	pc := &poolConn{
		nc:      nc,
		br:      bufio.NewReaderSize(nc, 16<<10),
		waiting: make(map[uint32]chan *wire.Response),
	}
	go pc.readLoop()
	return pc
}

func (pc *poolConn) broken() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err != nil
}

func (pc *poolConn) failure() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err == nil {
		return errors.New("client: connection failed")
	}
	return pc.err
}

// enqueue registers the request's response channel and writes the frame.
func (pc *poolConn) enqueue(ctx context.Context, req *wire.Request) (chan *wire.Response, error) {
	ch := make(chan *wire.Response, 1)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return nil, err
	}
	pc.waiting[req.ID] = ch
	pc.mu.Unlock()

	// Encode into the connection's retained scratch under wmu: no
	// per-request frame allocation, and the encode/write pair stays atomic
	// with respect to other writers.
	pc.wmu.Lock()
	frame, err := wire.AppendRequest(pc.wbuf[:0], req)
	if err != nil {
		pc.wmu.Unlock()
		pc.forget(req.ID)
		return nil, err
	}
	pc.wbuf = frame
	if deadline, ok := ctx.Deadline(); ok {
		_ = pc.nc.SetWriteDeadline(deadline)
	}
	_, werr := pc.nc.Write(frame)
	pc.wmu.Unlock()
	if werr != nil {
		pc.forget(req.ID)
		pc.close(werr)
		return nil, werr
	}
	return ch, nil
}

// forget abandons a request (context cancelled); a late response for its ID
// is discarded by the read loop.
func (pc *poolConn) forget(id uint32) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.waiting, id)
}

// close marks the connection broken and fails every waiter.
func (pc *poolConn) close(err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	waiting := pc.waiting
	pc.waiting = make(map[uint32]chan *wire.Response)
	pc.mu.Unlock()
	_ = pc.nc.Close()
	for _, ch := range waiting {
		close(ch) // receivers read the failure via failure()
	}
}

func (pc *poolConn) readLoop() {
	for {
		resp, err := wire.ReadResponse(pc.br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			pc.close(err)
			return
		}
		if resp.Op == wire.OpError {
			// The server declared our stream unframed (reserved OpError/ID-0
			// frame, docs/PROTOCOL.md) and is hanging up: the connection
			// cannot continue. Fail every in-flight request with the server's
			// typed error rather than waiting for the EOF.
			err := resp.Err()
			if err == nil {
				err = wire.ErrBadRequest
			}
			pc.close(fmt.Errorf("client: server aborted connection: %w", err))
			return
		}
		pc.mu.Lock()
		ch, ok := pc.waiting[resp.ID]
		if ok {
			delete(pc.waiting, resp.ID)
		}
		pc.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}
