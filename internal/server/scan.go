// Wire-level SCAN: ordered, consistent range reads over a hash-sharded
// keyspace. Keys are placed by hash (ShardOf, then subMix), so one ordered
// page necessarily consults EVERY serving sub-shard; a page executes as one
// read-only multi-view transaction (votm.AtomicAll) over the full sub-shard
// set, inside which a k-way merge of per-shard skip-list cursors yields the
// next run of keys in global order. Because every view is quiesced, a page
// is a consistent snapshot: no concurrent writer's partial effects and no
// half-migrated split can appear inside it. Consistency is per page, not
// across pages — the cursor a client resumes with names a key, not a
// snapshot, exactly like the BUSY-retry contract elsewhere in the protocol.
package server

import (
	"fmt"
	"slices"

	"votm"
	"votm/ds"
	"votm/enc"
	"votm/wire"
)

// scanByteBudget caps the value bytes packed into one SCAN page. The entry
// count is already bounded by wire.MaxScanKeys, but 1024 values of
// MaxValueLen would overrun wire.MaxFrame; the byte budget keeps a full
// page's frame a small multiple of this (budget + one value) regardless of
// the configured limits. The budget is checked after an entry is added, so
// a page always carries at least one entry when the range is non-empty.
const scanByteBudget = 256 << 10

// scanCoordinator returns the sub-shard whose worker executes SCAN pages:
// the globally least serving sub-shard in canonical order. SCAN quiesces
// every view in that order — the one the round coordinator pauses its
// participants in, which is AtomicAll's deadlock-freedom contract — and runs
// from the front of it.
func (s *Server) scanCoordinator() *shard {
	var best *shard
	for _, g := range s.shards {
		for _, sh := range *g.subs.Load() {
			if best == nil || shardCompare(sh, best) < 0 {
				best = sh
			}
		}
	}
	return best
}

// runScan answers one SCAN page. The participant set is snapshotted before
// the pause and re-verified inside it (splits publish under the parent
// view's exclusive section, so membership is frozen while paused): a set
// that grew in between would be missing the new child's keys, and the page
// answers BUSY for the client's retry layer instead.
func (w *groupWorker) runScan(t task) {
	req := t.req
	resp := wire.NewResponse()
	resp.Op, resp.ID = req.Op, req.ID

	parts := w.s.allSubShards()
	slices.SortFunc(parts, shardCompare)
	views := make([]*votm.View, len(parts))
	for i, p := range parts {
		views[i] = p.view
	}

	lo := req.Key
	if req.HasCursor {
		lo = req.Cursor
	}
	limit := int(req.Limit)
	if limit > wire.MaxScanKeys {
		limit = wire.MaxScanKeys
	}
	contributed := make([]uint64, len(parts))

	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				w.s.logf("votmd: shard %d: %v in SCAN transaction", w.sh.id, r)
				err = fmt.Errorf("scan: %v", r)
			}
		}()
		return votm.AtomicAll(w.ctx(), w.th, views, true, func(txs []votm.Tx) error {
			// Membership re-check. Sub-shard lists are append-only (a failed
			// split tears its child down before publication), so an unchanged
			// count means an unchanged set.
			if len(w.s.allSubShards()) != len(parts) {
				return errStaleRoute
			}

			// One skip-list cursor per participant, each parked at its first
			// key >= lo; keys[i] caches the cursor's key so the merge loop
			// costs one load per advance, not one per comparison.
			cursors := make([]ds.Ref, len(parts))
			keys := make([]uint64, len(parts))
			for i, p := range parts {
				cursors[i] = p.idx.Seek(txs[i], lo)
				if cursors[i] != ds.NilRef {
					keys[i] = p.idx.NodeKey(txs[i], cursors[i])
				}
			}

			valBytes := 0
			for len(resp.Entries) < limit {
				// Routing partitions keys across sub-shards, so the minimum
				// is unique: no tie-breaking needed.
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
					return nil // range exhausted: final page
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
				if valBytes >= scanByteBudget {
					break
				}
			}

			// Page full: name the resume point if anything remains.
			for i, n := range cursors {
				if n == ds.NilRef || keys[i] >= req.End {
					continue
				}
				if !resp.More || keys[i] < resp.Cursor {
					resp.More, resp.Cursor = true, keys[i]
				}
			}
			return nil
		})
	}()
	if err != nil {
		resp.Entries = resp.Entries[:0]
		resp.More, resp.Cursor = false, 0
		status, detail := errStatus(err)
		resp.Status = status
		resp.SetDetail(detail)
		w.s.finish(t, resp)
		return
	}
	w.sh.scans.Add(1)
	for i, n := range contributed {
		if n > 0 {
			parts[i].scannedKeys.Add(n)
		}
	}
	w.s.finish(t, resp)
}
