// Wire-level SCAN: ordered, consistent range reads over a hash-sharded
// keyspace. Keys are placed by hash (ShardOf), so one ordered page
// necessarily consults EVERY shard: a k-way merge of per-shard skip-list
// cursors yields the next run of keys in global order.
//
// Who serves a page. The connection reader that decoded it, on its own
// execution state (conn.exec), answered with its GETs. A page follows the
// read rule of every request (docs/PROTOCOL.md, Framing): pipelined requests
// are not ordered, so the reader does not publish its staged runs before it,
// and a page pipelined behind a write of its own connection may or may not
// see it — a write the client had its answer for has committed. A page
// takes no admission and no queue slot, so it is never answered BUSY.
//
// How a page reads. By a validated read (votm.ReadAll) over every shard: no
// view is paused and no admission taken, shard executors keep committing,
// and the read holds only if no write began on any of the views while it ran
// — otherwise it is tried again, and after readTries it falls back to one
// read-only quiesce of them all (votm.AtomicAll). Either way a page is a
// consistent snapshot: no concurrent writer's partial effects can appear
// inside it. A page sees a round whole or not at all: a round writes inside
// one AtomicAll, which opens every view's writer count before its body
// (core/multiview.go), and the redo and replication appliers
// (shard.applyRecords) write one view per transaction.
//
// Reader fallbacks make the server's multi-view pausers many: the round
// coordinator (round.go) and every reader whose page fell back. Pausers
// exclude each other per view (rac.Controller.PauseAndDrain), and every
// multi-view pauser takes its views in shard-id order — a round's union is
// sorted by shardCompare, a page's views are s.shards' order — so no two can
// cycle.
//
// Consistency is per page, not across pages — the cursor a client resumes
// with names a key, not a snapshot, exactly like the BUSY-retry contract
// elsewhere in the protocol. Like a GET, a page serves committed memory
// state: it does not wait for the durability of the writes it reveals.
package server

import (
	"time"

	"votm"
	"votm/ds"
	"votm/enc"
	"votm/wire"
)

// scanByteBudget caps the value bytes packed into one SCAN page. The entry
// count is already bounded by wire.MaxScanKeys, but 1024 values of
// maxValueLen would overrun wire.MaxFrame; the byte budget keeps a full
// page's frame a small multiple of this (budget + one value) regardless of
// the configured limits. The budget is checked after an entry is added, so
// a page always carries at least one entry when the range is non-empty.
const scanByteBudget = 256 << 10

// pager is a connection reader's page state, kept with its execution state
// (groupWorker.pg): the page's k-way merge scratch per shard, and the page
// meters conn.answer adds to RoundStats — the pages served, their validated
// reads and fallbacks, and the wall time their quiesces paused.
type pager struct {
	cursors     []ds.Ref
	keys        []uint64
	contributed []uint64

	readMeter
	pausedNs uint64
}

// servePage answers a SCAN page on the reader. Its staged runs stay staged:
// they are published only if the page falls back, before its quiesce can
// wait (tryRead). A panic out of a read of views nobody wrote is the page's
// own fault (TxFault).
func (c *conn) servePage(t task) {
	s, resp := c.srv, t.resp
	p := &c.executor().pg
	err := c.readPage(p, t.req, resp)
	p.n++
	if err != nil {
		resp.Entries = resp.Entries[:0]
		resp.More, resp.Cursor = false, 0
		status, detail := errStatus(err)
		resp.Status = status
		resp.SetDetail(detail)
	} else {
		// An answered page counts on shard 0, its entries on the shards that
		// gave them.
		s.shards[0].scans.Add(1)
		for i, n := range p.contributed {
			if n > 0 {
				s.shards[i].scannedKeys.Add(n)
			}
		}
	}
	c.answered(t)
}

// readPage reads the page into resp: by validated reads over every shard, up
// to readTries of them, then inside a read-only quiesce of them all.
func (c *conn) readPage(p *pager, req *wire.Request, resp *wire.Response) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	s, w := c.srv, c.exec
	read := func(txs []votm.Tx) error {
		resp.Entries, resp.More, resp.Cursor = resp.Entries[:0], false, 0
		return p.merge(s.shards, req, resp, txs)
	}
	if held, err := c.tryRead(s.pageViews, readTries, &p.readMeter, read); held {
		return err
	}
	start := time.Now()
	err = votm.AtomicAll(w.ctx(), w.th, s.pageViews, true, read)
	p.pausedNs += uint64(time.Since(start))
	return err
}

// merge reads one SCAN page into resp from every shard of parts, through
// its handles, one per shard.
func (p *pager) merge(parts []*shard, req *wire.Request, resp *wire.Response, txs []votm.Tx) error {
	lo := req.Key
	if req.HasCursor {
		lo = req.Cursor
	}
	limit := int(req.Limit)
	if limit > wire.MaxScanKeys {
		limit = wire.MaxScanKeys
	}

	// One skip-list cursor per participant, each parked at its first key >=
	// lo; keys[i] caches the cursor's key so the merge loop costs one load per
	// advance, not one per comparison.
	p.cursors = resized(p.cursors, len(parts))
	p.keys = resized(p.keys, len(parts))
	p.contributed = resized(p.contributed, len(parts))
	cursors, keys, contributed := p.cursors, p.keys, p.contributed
	for i, sh := range parts {
		cursors[i] = sh.idx.Seek(txs[i], lo)
		if cursors[i] != ds.NilRef {
			keys[i] = sh.idx.NodeKey(txs[i], cursors[i])
		}
	}

	// The page's values are copied back to back into the capacity of the
	// response's Value, which an OK SCAN frame does not carry: one buffer the
	// connection keeps with the response (within retainMax) instead of an
	// allocation per entry. The entries alias it until the writer has encoded
	// them and the response is recycled.
	buf, valBytes := resp.Value[:0], 0
	for len(resp.Entries) < limit && valBytes < scanByteBudget {
		// Routing partitions keys across shards, so the minimum is unique:
		// no tie-breaking needed.
		best := -1
		for i, n := range cursors {
			if n == ds.NilRef || keys[i] >= req.End {
				continue
			}
			if best < 0 || keys[i] < keys[best] {
				best = i
			}
		}
		if best < 0 {
			break // range exhausted: final page
		}
		sh, tx := parts[best], txs[best]
		ref := sh.idx.NodeVal(tx, cursors[best])
		buf = enc.AppendBlob(buf, tx, votm.Addr(ref))
		resp.Entries = append(resp.Entries, wire.ScanEntry{Key: keys[best], Value: buf[valBytes:]})
		contributed[best]++
		valBytes = len(buf)
		if cursors[best] = sh.idx.Next(tx, cursors[best]); cursors[best] != ds.NilRef {
			keys[best] = sh.idx.NodeKey(tx, cursors[best])
		}
	}
	// An append that grew buf left the entries before it on the old array;
	// their lengths still hold, so re-slice them all from the final one.
	off := 0
	for i := range resp.Entries {
		n := len(resp.Entries[i].Value)
		resp.Entries[i].Value = buf[off : off+n : off+n]
		off += n
	}
	resp.Value = buf[:0] // kept for its capacity; the frame holds no Value

	// Name the resume point if anything remains.
	for i, n := range cursors {
		if n == ds.NilRef || keys[i] >= req.End {
			continue
		}
		if !resp.More || keys[i] < resp.Cursor {
			resp.More, resp.Cursor = true, keys[i]
		}
	}
	return nil
}
