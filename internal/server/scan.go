// Wire-level SCAN: ordered, consistent range reads over a hash-sharded
// keyspace. Keys are placed by hash (ShardOf, then subMix), so one ordered
// page necessarily consults EVERY serving sub-shard: a page is a read-only
// task of a coordination round (round.go) whose union is the full sub-shard
// set, and inside the round's one quiesce a k-way merge of per-shard
// skip-list cursors yields the next run of keys in global order. Because
// every view is paused, a page is a consistent snapshot: no concurrent
// writer's partial effects and no half-migrated split can appear inside it,
// and it sees exactly the round-mates queued ahead of it. Consistency is per
// page, not across pages — the cursor a client resumes with names a key, not
// a snapshot, exactly like the BUSY-retry contract elsewhere in the protocol.
// Like a GET, a page serves committed memory state: it does not wait for the
// durability of the writes it reveals.
package server

import (
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

// runPage answers one SCAN page inside the round's quiesce, against the
// round's union — every serving sub-shard, snapshotted before the pause — and
// its handles. The set is re-verified in here (splits publish under the
// parent view's exclusive section, so membership is frozen while paused): a
// set that grew in between would be missing the new child's keys, and the
// page answers BUSY for the client's retry layer instead.
func (rc *roundCoordinator) runPage(req *wire.Request, resp *wire.Response, txs []votm.Tx) error {
	parts := rc.union
	if rc.s.subShardCount() != len(parts) {
		return errStaleRoute
	}

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

	valBytes := 0
	for len(resp.Entries) < limit && valBytes < scanByteBudget {
		// Routing partitions keys across sub-shards, so the minimum is
		// unique: no tie-breaking needed.
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
		val := enc.LoadBlob(tx, votm.Addr(ref))
		resp.Entries = append(resp.Entries, wire.ScanEntry{Key: keys[best], Value: val})
		contributed[best]++
		valBytes += len(val)
		if cursors[best] = p.idx.Next(tx, cursors[best]); cursors[best] != ds.NilRef {
			keys[best] = p.idx.NodeKey(tx, cursors[best])
		}
	}

	// Name the resume point if anything remains.
	for i, n := range cursors {
		if n == ds.NilRef || keys[i] >= req.End {
			continue
		}
		if !resp.More || keys[i] < resp.Cursor {
			resp.More, resp.Cursor = true, keys[i]
		}
	}

	rc.s.leastSubShard().scans.Add(1)
	for i, n := range contributed {
		if n > 0 {
			parts[i].scannedKeys.Add(n)
		}
	}
	return nil
}
