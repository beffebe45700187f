// Wire-level SCAN: ordered, consistent range reads over a hash-sharded
// keyspace. Keys are placed by hash (ShardOf), so one ordered page
// necessarily consults EVERY shard: a k-way merge of per-shard skip-list
// cursors yields the next run of keys in global order.
//
// Who serves a page. The connection reader that decoded it serves it on its
// own execution state (conn.exec), answered with its GETs, unless the
// connection has a round task not yet answered (conn.inRound): then the page
// goes behind it on the round queue, and the round coordinator (round.go)
// serves it once the round being built ends, so the page sees every batch
// queued ahead of it whole and none behind. Both executors serve it through
// the same pager. A reader does not publish its staged runs before a page:
// pipelined requests are not ordered, and a write the client had its answer
// for has committed.
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
// Reader fallbacks make the server's multi-view pausers many: the
// coordinator and every reader whose page fell back. Pausers exclude each
// other per view (rac.Controller.PauseAndDrain), and every multi-view pauser
// takes its views in shard-id order — a round's union is sorted by
// shardCompare, a page's views are s.shards' order — so no two can cycle.
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

// pager is one executor's page state — a connection reader's or the round
// coordinator's: the executor's thread and request context, the page's k-way
// merge scratch per shard, and the page meters its owner adds to RoundStats
// (roundCoordinator.addPages).
type pager struct {
	s    *Server
	th   *votm.Thread
	rctx *reqContext

	cursors     []ds.Ref
	keys        []uint64
	contributed []uint64

	pages, tries, falls, pausedNs uint64
}

// serve reads one SCAN page into t's response and meters it; the caller
// answers it. publish runs before the fallback can wait, so what the executor
// holds goes out first. A panic out of a read of views nobody wrote is the
// page's own fault (TxFault).
func (p *pager) serve(t task, publish func()) {
	resp := t.resp
	err := p.read(t.req, resp, publish)
	p.pages++
	if err != nil {
		resp.Entries = resp.Entries[:0]
		resp.More, resp.Cursor = false, 0
		status, detail := errStatus(err)
		resp.Status = status
		resp.SetDetail(detail)
		return
	}
	// An answered page counts on shard 0, its entries on the shards that
	// gave them.
	p.s.shards[0].scans.Add(1)
	for i, n := range p.contributed {
		if n > 0 {
			p.s.shards[i].scannedKeys.Add(n)
		}
	}
}

// read reads the page into resp: by validated reads over every shard, up to
// readTries of them, then inside a read-only quiesce of them all.
func (p *pager) read(req *wire.Request, resp *wire.Response, publish func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	read := func(txs []votm.Tx) error {
		resp.Entries, resp.More, resp.Cursor = resp.Entries[:0], false, 0
		return p.readPage(req, resp, txs)
	}
	views := p.s.pageViews
	if held, err := tryRead(p.th, views, readTries, &p.tries, &p.falls, publish, read); held {
		return err
	}
	start := time.Now()
	err = votm.AtomicAll(p.rctx.ctx(), p.th, views, true, read)
	p.pausedNs += uint64(time.Since(start))
	return err
}

// readPage reads one SCAN page into resp from every shard, through its
// handles, one per shard.
func (p *pager) readPage(req *wire.Request, resp *wire.Response, txs []votm.Tx) error {
	parts := p.s.shards

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
