package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
// Between decode and encode a request touches only its connection's memory
// (docs/ALGORITHMS.md, "Request lifecycle"): the connection holds the drain
// registration, pending is charged in blocks and discharged per answered
// chain, and the reader takes requests and responses from the connection's
// free lists, which the executors and the writer give them back to.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan *wire.Response
	// pending counts dispatched-but-unanswered requests plus the reader's
	// unused credits; out is closed only after the reader has exited,
	// returned its credits and pending drained, so a graceful drain never
	// loses an in-flight response.
	pending sync.WaitGroup
	credits int // the reader's: pending charged but not yet used

	reqs  freeList[wire.Request]
	resps freeList[wire.Response]

	// runs are the reader's staged ring tasks, one run per sub-shard, and
	// more tells dispatch that the next frame is already wholly buffered, so
	// publishing them can wait (docs/ALGORITHMS.md, "Request lifecycle").
	runs []shardRun
	more bool
}

// shardRun is the tasks a reader staged for one sub-shard's ring, in arrival
// order.
type shardRun struct {
	sh    *shard
	tasks []task
}

// freeList is one connection's idle requests or responses, at most stockMax
// at each end. The reader takes from own without a lock and, once own runs
// dry, swaps it for shared, where executors and the writer put back under mu
// — one critical section per answered chain or per write.
type freeList[T any] struct {
	own    []*T
	mu     sync.Mutex
	shared []*T
}

func (l *freeList[T]) take() *T {
	if len(l.own) == 0 {
		l.mu.Lock()
		l.own, l.shared = l.shared, l.own
		l.mu.Unlock()
		if len(l.own) == 0 {
			return new(T)
		}
	}
	n := len(l.own) - 1
	x := l.own[n]
	l.own[n], l.own = nil, l.own[:n]
	return x
}

// put returns x to the shared end; the caller holds mu.
func (l *freeList[T]) put(x *T) {
	if len(l.shared) < stockMax {
		l.shared = append(l.shared, x)
	}
}

// reqFits reports whether req may be kept. Its frame buffer is as long as the
// largest frame ever read into it and the check follows every use, so bounding
// what the last frame decoded to, framing included, bounds the buffer.
func reqFits(req *wire.Request) bool {
	n := 64 + len(req.Value) + len(req.OldValue) + cap(req.Subs)*int(unsafe.Sizeof(wire.Sub{}))
	for i := range req.Subs {
		n += len(req.Subs[i].Value)
	}
	return n <= retainMax
}

// clearResponse readies r for reuse, keeping its Value, Subs and Entries
// arrays, or reports false, leaving r alone, when they hold more than
// retainMax bytes. Server-built responses carry no decode frame.
func clearResponse(r *wire.Response) bool {
	if cap(r.Value)+cap(r.Subs)*int(unsafe.Sizeof(wire.SubResult{}))+cap(r.Entries)*int(unsafe.Sizeof(wire.ScanEntry{})) > retainMax {
		return false
	}
	clear(r.Subs)
	clear(r.Entries) // drop value aliases
	r.Op, r.ID, r.Status, r.Created, r.More, r.Cursor = 0, 0, 0, false, false, 0
	r.Value, r.Subs, r.Entries, r.Stats = r.Value[:0], r.Subs[:0], r.Entries[:0], nil
	r.Map, r.Next = wire.ShardMap{}, nil
	return true
}

// giveResps returns one write's responses, cleared, in one critical section.
func (c *conn) giveResps(rs []*wire.Response) {
	c.resps.mu.Lock()
	for _, r := range rs {
		if clearResponse(r) {
			c.resps.put(r)
		}
	}
	c.resps.mu.Unlock()
}

func (s *Server) serveConn(nc net.Conn) {
	c := &conn{srv: s, nc: nc, out: make(chan *wire.Response, respChannel)}
	s.trackConn(nc, true)
	defer s.trackConn(nc, false)

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	c.readLoop()

	c.hangUp()
	close(c.out)
	<-writerDone
	_ = nc.Close()
}

// hangUp ends the reader's side: it publishes the staged runs, returns the
// unused credits, waits until every request the reader dispatched has been
// answered, and gives the connection's drain registration back.
func (c *conn) hangUp() {
	c.publish()
	c.pending.Add(-c.credits)
	c.credits = 0
	c.pending.Wait()
	c.srv.reqWG.Done()
}

// charge counts one request into pending before it leaves the reader, taking
// credits pendingBlock at a time: one atomic per block, not per request.
func (c *conn) charge() {
	if c.credits == 0 {
		c.credits = pendingBlock
		c.pending.Add(pendingBlock)
	}
	c.credits--
}

// send queues a response for the writer, transferring ownership. It may
// block briefly when the writer is behind; the writer always drains out
// until it is closed, so the send cannot deadlock.
func (c *conn) send(r *wire.Response) { c.out <- r }

// reply answers req inline with status and detail, if any; it settles like
// an executor's answer.
func (c *conn) reply(req *wire.Request, resp *wire.Response, status wire.Status, detail string) {
	resp.Status = status
	if detail != "" {
		resp.SetDetail(detail)
	}
	c.charge()
	c.srv.finish(task{req: req, resp: resp, c: c})
}

func (c *conn) readLoop() {
	br := bufio.NewReaderSize(c.nc, readBufSize)
	for {
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
		// Checked after the arm: Shutdown stores draining before it sets every
		// deadline to now, so a re-arm that lands after that wake-up is seen
		// here instead of sleeping out IdleTimeout in the read below.
		if c.srv.draining.Load() {
			return
		}
		req := c.reqs.take()
		if err := wire.ReadRequestReuse(br, req); err != nil {
			if errors.Is(err, wire.ErrProtocol) {
				// The stream is unframed from here on: answer once with the
				// reserved OpError/ID-0 frame — which no pipelined request
				// can be demuxed onto — and hang up (docs/PROTOCOL.md).
				resp := c.resps.take()
				resp.Op, resp.Status = wire.OpError, wire.StatusBadRequest
				resp.SetDetail(err.Error())
				c.send(resp)
			}
			// io.EOF: clean close. Deadline errors: idle cutoff or the
			// drain wake-up. Either way the read side is done.
			return
		}
		// more: the whole next frame is buffered, so reading it cannot block.
		hdr, _ := br.Peek(min(4, br.Buffered()))
		c.more = len(hdr) == 4 && 4+int(binary.LittleEndian.Uint32(hdr)) <= br.Buffered()
		c.dispatch(req)
	}
}

// dispatch plans req, then publishes the staged runs unless the reader has
// said that another frame is wholly buffered.
func (c *conn) dispatch(req *wire.Request) {
	c.plan(req)
	if !c.more {
		c.publish()
	}
}

// plan validates req and routes it: control ops answer inline, data ops go to
// their executor's bounded queue — staged on the shard's run, or submitted to
// the round coordinator (full queue => StatusBusy, draining server =>
// StatusShutdown). A planned task carries req and its response to the
// executor, which answers it.
func (c *conn) plan(req *wire.Request) {
	s := c.srv
	resp := c.resps.take()
	resp.Op, resp.ID = req.Op, req.ID

	switch req.Op {
	case wire.OpPing:
		c.reply(req, resp, wire.StatusOK, "")
		return
	case wire.OpStats:
		s.statsResponse(req.Shard, resp)
		c.reply(req, resp, resp.Status, "")
		return
	}

	// Cluster mode: the plane answers map ops and gates data ops on this
	// node's role (WRONG_SHARD redirect, handoff BUSY).
	stream := false
	if m := s.cfg.Cluster; m != nil {
		switch m.Gate(req, resp) {
		case GateAnswered:
			c.reply(req, resp, resp.Status, "")
			return
		case GateServe:
			// The long-poll must not stall the reader. Charged like a queued
			// request, it holds the connection's drain registration; Shutdown
			// stops the control plane first, which answers it SHUTDOWN.
			c.charge()
			go func() {
				m.Serve(req, resp)
				s.finish(task{req: req, resp: resp, c: c})
			}()
			return
		case GateStream:
			stream = true
		}
	} else if req.Op >= wire.OpShardMapGet && req.Op <= wire.OpHandoff {
		// Typed refusal: these would otherwise be misrouted as data ops.
		c.reply(req, resp, wire.StatusBadRequest, "not a cluster member")
		return
	}

	if status, msg := c.validate(req); status != wire.StatusOK {
		c.reply(req, resp, status, msg)
		return
	}

	if s.draining.Load() {
		c.reply(req, resp, wire.StatusShutdown, "server draining")
		return
	}
	c.charge()

	// The one plan. sh is the ring the task is staged for: the key's owner, or
	// the single participant of an ATOMIC, which joins that shard's group
	// with its plan attached. A nil sh means the request involves several
	// sub-shards — a spanning ATOMIC, or a SCAN page, which consults them
	// all — and goes straight to the round coordinator (round.go): it never
	// enters a ring. Nothing re-plans after this; a plan a split made stale
	// is caught by the executors' in-transaction route check (BUSY).
	t := task{req: req, resp: resp, c: c}
	if stream {
		// A stream keeps its place behind what this reader staged before it
		// and goes out at once: only a full ring pushes back.
		c.stage((*s.shards[req.Shard].subs.Load())[0], t)
		c.publish()
		return
	}
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
	if sh != nil {
		c.stage(sh, t)
		return
	}
	// A round must not overtake what this reader planned before it.
	c.publish()
	if !s.rounds.submit(t) {
		// The round queue is full. It belongs to no shard: meter an ATOMIC
		// on its first participant, a page on the least sub-shard.
		sh = s.leastSubShard()
		if t.batch != nil {
			sh = t.batch.parts[0]
		}
		s.busy(t, &sh.ringFull)
	}
}

// busy refuses a planned task before anything executed, counting it on meter.
func (s *Server) busy(t task, meter *atomic.Uint64) {
	meter.Add(1)
	if t.batch != nil {
		s.releaseBatch(t.batch)
	}
	t.resp.Status = wire.StatusBusy
	s.finish(t)
}

// stage puts t on its sub-shard's run, publishing the run once it holds a
// full group.
func (c *conn) stage(sh *shard, t task) {
	i := 0
	for i < len(c.runs) && c.runs[i].sh != sh {
		i++
	}
	if i == len(c.runs) {
		c.runs = append(c.runs, shardRun{sh: sh})
	}
	r := &c.runs[i]
	r.tasks = append(r.tasks, t)
	if len(r.tasks) >= c.srv.cfg.BatchMax {
		c.publishRun(r)
	}
}

// publish hands every staged run to its ring.
func (c *conn) publish() {
	for i := range c.runs {
		if len(c.runs[i].tasks) > 0 {
			c.publishRun(&c.runs[i])
		}
	}
}

// publishRun pushes the prefix of r the shard's ring has room for and answers
// the rest BUSY, unexecuted: a full ring is the one bound on a shard's queue.
func (c *conn) publishRun(r *shardRun) {
	sh, ts := r.sh, r.tasks
	n := sh.queue.PushBatch(ts)
	if n > 0 {
		sh.noteDepth(uint64(sh.queue.Len()))
	}
	for _, t := range ts[n:] {
		c.srv.busy(t, &sh.ringFull)
	}
	clear(ts)
	r.tasks = ts[:0]
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
// connection, so the small-before-big write order is unobservable. The
// responses of one write go back to the connection together once it is done.
func (c *conn) writeLoop(done chan struct{}) {
	defer close(done)
	threshold := writeBufSize
	small := make([]byte, 0, threshold) // coalesced sub-threshold frames
	var big []byte                      // large frames for the writev path
	var sent []*wire.Response           // this write's responses
	failed := false
	for r := range c.out {
		small, big, sent = small[:0], big[:0], sent[:0]
		// encode consumes r and any responses chained behind it (a group
		// worker hands a whole group's responses over as one chain — one
		// channel hand-off instead of one per response). Once the stream has
		// failed it only collects them: out is drained until it is closed, so
		// senders never block forever.
		encode := func(r *wire.Response) {
			for ; r != nil; r = r.Next {
				sent = append(sent, r)
				if failed {
					continue
				}
				var err error
				if respSizeHint(r) >= threshold {
					big, err = wire.AppendResponse(big, r)
				} else {
					small, err = wire.AppendResponse(small, r)
				}
				failed = err != nil // unencodable response: the stream cannot continue
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
		if !failed {
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
			failed = err != nil
		}
		c.giveResps(sent)
		clear(sent)
	}
}
