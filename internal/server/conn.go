package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"votm/wire"
)

// conn is one client connection. A read goroutine parses frames and either
// answers inline (PING, STATS, rejections) or plans the request — the only
// place a request is routed — and queues it on its executor: the owning
// shard's ring for a point op or a same-shard ATOMIC, the round coordinator's
// queue for a spanning ATOMIC or a SCAN page. The executors push responses
// onto out, and a write goroutine flushes them — so responses complete out of
// order and the connection pipelines.
//
// Requests and responses are pooled (wire.NewRequest/NewResponse) with
// release-after-write ownership: a dispatched request belongs to its
// executor, which releases it after answering; a response handed to send
// belongs to the write loop, which releases it after encoding.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan *wire.Response
	// pending counts dispatched-but-unanswered requests; the out channel is
	// closed only after the read loop has exited AND pending drained, so a
	// graceful drain never loses an in-flight response.
	pending sync.WaitGroup
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, out: make(chan *wire.Response, respChannel)}
	s.trackConn(nc, true)
	defer s.trackConn(nc, false)

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	c.readLoop()

	c.pending.Wait()
	close(c.out)
	<-writerDone
	_ = nc.Close()
}

// send queues a response for the writer, transferring ownership. It may
// block briefly when the writer is behind; the writer always drains out
// until it is closed, so the send cannot deadlock.
func (c *conn) send(r *wire.Response) { c.out <- r }

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
		if c.srv.draining.Load() {
			return
		}
		// Re-arm the idle deadline only when the next read can actually
		// block on the socket. A pipelined burst is served straight out of
		// the bufio buffer — paying a runtime timer update per frame there
		// is pure per-request overhead. A frame split across the buffer
		// boundary blocks under the previous deadline, which was armed no
		// earlier than the last time the socket went quiet; mid-burst that
		// is at most one buffer's processing time ago.
		if br.Buffered() == 0 {
			_ = c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		}
		req := wire.NewRequest()
		if err := wire.ReadRequestReuse(br, req); err != nil {
			req.Release()
			if errors.Is(err, wire.ErrProtocol) {
				// The stream is unframed from here on: answer once with the
				// reserved OpError/ID-0 frame — which no pipelined request
				// can be demuxed onto — and hang up (docs/PROTOCOL.md).
				resp := wire.NewResponse()
				resp.Op, resp.Status = wire.OpError, wire.StatusBadRequest
				resp.SetDetail(err.Error())
				c.send(resp)
			}
			// io.EOF: clean close. Deadline errors: idle cutoff or the
			// drain wake-up. Either way the read side is done.
			return
		}
		c.dispatch(req)
	}
}

// dispatch validates req and routes it: control ops answer inline, data ops
// go to their executor's bounded queue (full queue => StatusBusy, draining
// server => StatusShutdown). Inline paths release req here; a dispatched
// req is released by its executor.
func (c *conn) dispatch(req *wire.Request) {
	s := c.srv
	// reject answers req inline and retires it.
	reject := func(status wire.Status, detail string) {
		resp := wire.NewResponse()
		resp.Op, resp.ID, resp.Status = req.Op, req.ID, status
		if detail != "" {
			resp.SetDetail(detail)
		}
		req.Release()
		c.send(resp)
	}

	switch req.Op {
	case wire.OpPing:
		reject(wire.StatusOK, "")
		return
	case wire.OpStats:
		resp := s.statsResponse(req)
		req.Release()
		c.send(resp)
		return
	}

	if s.cluster != nil {
		// Cluster mode: map ops answer here, replication/handoff streams
		// queue to their shard, and data ops gate on this node's role
		// (WRONG_SHARD redirect / handoff BUSY) before normal dispatch.
		if s.cluster.dispatch(c, req) {
			return
		}
	} else {
		switch req.Op {
		case wire.OpShardMapGet, wire.OpShardMapWatch, wire.OpShardMapJoin,
			wire.OpShardMapUpdate, wire.OpReplicate, wire.OpHandoff:
			// Typed refusal: these would otherwise be misrouted as data ops.
			reject(wire.StatusBadRequest, "not a cluster member")
			return
		}
	}

	if status, msg := c.validate(req); status != wire.StatusOK {
		reject(status, msg)
		return
	}

	if !s.beginReq() {
		reject(wire.StatusShutdown, "server draining")
		return
	}
	c.pending.Add(1)

	// The one plan. sh is the ring the task is queued on: the key's owner, or
	// the single participant of an ATOMIC, which joins that shard's group
	// with its plan attached. A nil sh means the request involves several
	// sub-shards — a spanning ATOMIC, or a SCAN page, which consults them
	// all — and goes straight to the round coordinator (round.go): it never
	// enters a ring. Nothing re-plans after this; a plan a split made stale
	// is caught by the executors' in-transaction route check (BUSY).
	t := task{req: req, c: c}
	var sh *shard
	switch req.Op {
	case wire.OpAtomic:
		t.batch = s.acquireBatch(req.Subs)
		if len(t.batch.parts) == 1 {
			sh = t.batch.parts[0]
		}
	case wire.OpScan:
	default:
		sh = s.shards[s.Shard(req.Key)].route(req.Key)
	}
	// busy refuses the planned task before anything executed.
	busy := func(meter *atomic.Uint64) {
		meter.Add(1)
		if t.batch != nil {
			s.releaseBatch(t.batch)
		}
		c.pending.Done()
		s.reqWG.Done()
		reject(wire.StatusBusy, "")
	}
	switch {
	case sh == nil:
		if !s.rounds.submit(t) {
			// The round queue is full. It belongs to no shard: meter an ATOMIC
			// on its first participant, a page on the least sub-shard.
			sh = s.leastSubShard()
			if t.batch != nil {
				sh = t.batch.parts[0]
			}
			busy(&sh.ringFull)
		}
	case sh.queue.Len() >= sh.ctl.admitLimit():
		// Adaptive admission gate: the queue's estimated drain time already
		// exceeds the latency budget, so shed this arrival with BUSY now —
		// bounding p999 — instead of letting it queue toward the hard bound.
		busy(&sh.admissionRejects)
	case sh.queue.TryPush(t):
		sh.noteDepth(uint64(sh.queue.Len()), s.hwWin.Load())
	default:
		// Bounded in-flight queue is full: reject now instead of queueing
		// unboundedly. The client sees a typed BUSY and decides.
		busy(&sh.ringFull)
	}
}

// validate applies size and shape limits a shard should never see violated.
func (c *conn) validate(req *wire.Request) (wire.Status, string) {
	max := c.srv.cfg.MaxValueLen
	switch req.Op {
	case wire.OpPut:
		if len(req.Value) > max {
			return wire.StatusTooLarge, fmt.Sprintf("value of %d bytes exceeds %d", len(req.Value), max)
		}
	case wire.OpCAS:
		if len(req.Value) > max || len(req.OldValue) > max {
			return wire.StatusTooLarge, fmt.Sprintf("value exceeds %d bytes", max)
		}
	case wire.OpAtomic:
		if len(req.Subs) == 0 {
			return wire.StatusBadRequest, "empty atomic batch"
		}
		for _, sub := range req.Subs {
			if len(sub.Value) > max {
				return wire.StatusTooLarge, fmt.Sprintf("value exceeds %d bytes", max)
			}
		}
	case wire.OpScan:
		// The framing layer already bounds Limit at MaxScanKeys; range and
		// cursor shape are semantic and rejected here (docs/PROTOCOL.md §SCAN).
		if req.Limit == 0 {
			return wire.StatusBadRequest, "scan limit must be positive"
		}
		if req.Key >= req.End {
			return wire.StatusBadRequest, "scan range is empty or reversed"
		}
		if req.HasCursor && (req.Cursor < req.Key || req.Cursor >= req.End) {
			return wire.StatusBadRequest, "scan cursor outside range"
		}
	}
	return wire.StatusOK, ""
}

// respSizeHint estimates r's encoded size, picking between the coalescing
// buffer and the writev path.
func respSizeHint(r *wire.Response) int {
	n := 64 + len(r.Value) + 104*len(r.Stats)
	for i := range r.Subs {
		n += 24 + len(r.Subs[i].Value)
	}
	for i := range r.Entries {
		n += 16 + len(r.Entries[i].Value)
	}
	return n
}

// writeLoop encodes and flushes responses. Frames are encoded into a
// retained scratch buffer (no per-response allocation) and coalesced: after
// one blocking receive it greedily drains whatever else is already pending,
// so pipelined responses go out in one syscall. Frames at least writeBufSize
// long are encoded into a second retained buffer and the two are written as
// a writev (net.Buffers) — one syscall, no copying large payloads into the
// coalescing buffer. Responses already complete out of order on a pipelined
// connection, so the small-before-big write order is unobservable.
func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	threshold := writeBufSize
	small := make([]byte, 0, threshold) // coalesced sub-threshold frames
	var big []byte                      // large frames for the writev path
	failed := false
	for r := range c.out {
		if failed {
			for r != nil { // keep draining so senders never block forever
				next := r.Next
				r.Next = nil
				r.Release()
				r = next
			}
			continue
		}
		small, big = small[:0], big[:0]
		// encode consumes r and any responses chained behind it (a group
		// worker hands a whole group's responses over as one chain — one
		// channel hand-off instead of one per response).
		encode := func(r *wire.Response) {
			for r != nil {
				next := r.Next
				r.Next = nil
				var err error
				if respSizeHint(r) >= threshold {
					big, err = wire.AppendResponse(big, r)
				} else {
					small, err = wire.AppendResponse(small, r)
				}
				r.Release()
				if err != nil {
					failed = true // unencodable response: the stream cannot continue
				}
				r = next
			}
		}
		encode(r)
	fill:
		for !failed && len(small) < threshold && len(big) < 4*threshold {
			select {
			case r2, ok := <-c.out:
				if !ok {
					break fill // closed: write what we have, outer loop exits
				}
				encode(r2)
			default:
				break fill
			}
		}
		if failed {
			continue
		}
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		var err error
		switch {
		case len(big) == 0:
			_, err = c.nc.Write(small)
		case len(small) == 0:
			_, err = c.nc.Write(big)
		default:
			bufs := net.Buffers{small, big}
			_, err = bufs.WriteTo(c.nc)
		}
		if err != nil {
			failed = true
		}
	}
}
