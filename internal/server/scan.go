// Wire-level SCAN: ordered, consistent range reads over a hash-sharded
// keyspace. Keys are placed by hash (ShardOf), so one ordered page
// necessarily consults EVERY shard: a k-way merge of per-shard skip-list
// cursors yields the next run of keys in global order.
// The round coordinator (round.go) serves each page as it dequeues it, after
// the round being built ends, so the page sees every batch queued ahead of it
// and none behind. It serves it by a validated read (votm.ReadAll) over every
// shard: no view is paused and no admission taken, shard executors
// keep committing, and the read holds only if no write began on any of the
// views while it ran — otherwise it is tried again, and after pageTries it
// falls back to one read-only quiesce of them all (votm.AtomicAll). Either
// way a page is a consistent snapshot: no concurrent writer's partial effects
// can appear inside it. Consistency is per page,
// not across pages — the cursor a client resumes with names a key, not a
// snapshot, exactly like the BUSY-retry contract elsewhere in the protocol.
// Like a GET, a page serves committed memory state: it does not wait for the
// durability of the writes it reveals.
package server

import (
	"runtime"
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

// pageTries bounds the validated reads a page makes before it falls back to a
// quiesce. Each refused or invalidated try yields first, so a write group
// under way on some shard can finish.
const pageTries = 32

// servePage answers one SCAN page and hands its response back. A panic out of
// a read on views nobody wrote is the page's own fault (TxFault), as a
// round's task's is.
func (rc *roundCoordinator) servePage(t task) {
	err := rc.readPageRetried(t.req, t.resp)
	resp := t.resp
	rc.nPages.Add(1)
	if err != nil {
		resp.Entries = resp.Entries[:0]
		resp.More, resp.Cursor = false, 0
		status, detail := errStatus(err)
		resp.Status = status
		resp.SetDetail(detail)
	} else {
		rc.meterPage()
	}
	rc.s.finish(t)
}

// readPageRetried reads the page into resp: by validated reads over every
// shard, up to pageTries of them, then inside a read-only quiesce of them all.
func (rc *roundCoordinator) readPageRetried(req *wire.Request, resp *wire.Response) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = txFault{r}
		}
	}()
	read := func(txs []votm.Tx) error {
		resp.Entries, resp.More, resp.Cursor = resp.Entries[:0], false, 0
		return rc.readPage(req, resp, txs)
	}
	for try := 0; try < pageTries; try++ {
		if try > 0 {
			runtime.Gosched()
		}
		rc.nPageTries.Add(1)
		if ok, err := votm.ReadAll(rc.th, rc.pageViews, read); ok {
			return err
		}
	}
	rc.nPageFallbacks.Add(1)
	start := time.Now()
	err = votm.AtomicAll(rc.ctx(), rc.th, rc.pageViews, true, read)
	rc.pausedNs.Add(uint64(time.Since(start)))
	return err
}

// meterPage counts an answered page on shard 0 and its entries on the shards
// that gave them.
func (rc *roundCoordinator) meterPage() {
	rc.s.shards[0].scans.Add(1)
	for i, n := range rc.contributed {
		if n > 0 {
			rc.s.shards[i].scannedKeys.Add(n)
		}
	}
}

// readPage reads one SCAN page into resp from every shard, through its
// handles, one per shard.
func (rc *roundCoordinator) readPage(req *wire.Request, resp *wire.Response, txs []votm.Tx) error {
	parts := rc.s.shards

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
	rc.cursors = resized(rc.cursors, len(parts))
	rc.keys = resized(rc.keys, len(parts))
	rc.contributed = resized(rc.contributed, len(parts))
	cursors, keys, contributed := rc.cursors, rc.keys, rc.contributed
	for i, p := range parts {
		cursors[i] = p.idx.Seek(txs[i], lo)
		if cursors[i] != ds.NilRef {
			keys[i] = p.idx.NodeKey(txs[i], cursors[i])
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
		p, tx := parts[best], txs[best]
		ref := p.idx.NodeVal(tx, cursors[best])
		buf = enc.AppendBlob(buf, tx, votm.Addr(ref))
		resp.Entries = append(resp.Entries, wire.ScanEntry{Key: keys[best], Value: buf[valBytes:]})
		contributed[best]++
		valBytes = len(buf)
		if cursors[best] = p.idx.Next(tx, cursors[best]); cursors[best] != ds.NilRef {
			keys[best] = p.idx.NodeKey(tx, cursors[best])
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
