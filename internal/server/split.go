// Automatic shard splitting: the serving-layer consumer of the viewmgr
// advisor. A wire-level shard starts as one sub-shard (one view); when the
// advisor flags it hot — abort rate, queue pressure, or a lock-mode
// collapse with queued work — the server splits it: a fresh view + hash
// map + worker pool takes over half the key space (extendible-hashing
// style, one more bit of a dedicated key mix per split) and the keys are
// migrated under the parent view's exclusive quiescence, so no transaction
// ever observes a half-moved key. The migration owns no store code: the
// child receives the half as redo records (applyRecords), the parent sheds
// it through the kernel's del and settle (store.go). Requests already queued
// for the old owner are answered StatusBusy after the route check — the
// typed signal the client retry layer (client.Options.BusyRetries) converts
// into a transparent redo against the new owner.
package server

import (
	"context"
	"slices"
	"time"

	"votm"
	"votm/ds"
	"votm/enc"
	"votm/internal/viewmgr"
	"votm/internal/wal"
)

// subMix is the sub-shard routing hash. It must disagree with ShardOf
// (wire-level placement), so splitting a shard actually bisects its keys.
func subMix(key uint64) uint64 {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// packRoute packs a sub-shard's routing rule — match keys whose subMix has
// low `depth` bits equal to `prefix` — into one word for atomic publication.
func packRoute(prefix uint64, depth uint) uint64 { return prefix | uint64(depth)<<32 }

func unpackRoute(bits uint64) (prefix uint64, depth uint) {
	return bits & (1<<32 - 1), uint(bits >> 32)
}

// matches reports whether key routes to this sub-shard under its current
// (atomically published) rule.
func (sh *shard) matches(key uint64) (ok bool, depth uint) {
	prefix, d := unpackRoute(sh.routeBits.Load())
	return subMix(key)&(1<<d-1) == prefix, d
}

// route returns the sub-shard owning key: the most specific (deepest)
// matching rule wins, which keeps routing well-defined during the brief
// publication window of a split when the parent's rule has not yet been
// narrowed and both parent and child match.
func (g *shardGroup) route(key uint64) *shard {
	subs := *g.subs.Load()
	var best *shard
	var bestDepth uint
	for _, sh := range subs {
		if ok, d := sh.matches(key); ok && (best == nil || d > bestDepth) {
			best, bestDepth = sh, d
		}
	}
	if best == nil {
		return subs[0] // unreachable: the rules' prefixes cover the key space
	}
	return best
}

// shardCompare is the canonical participant order: wire shard id, then view
// ID. Plans list their participants in it, and the round coordinator — the
// only goroutine that ever holds more than one shard — quiesces and wal-locks
// its union in it.
func shardCompare(a, b *shard) int {
	if a.id != b.id {
		return a.id - b.id
	}
	return a.view.ID() - b.view.ID()
}

// atomicPlan resolves an ATOMIC batch's participant sub-shards in canonical
// order into b.parts, and each sub's index into that order into b.owner
// (owner[i] is the participant owning subs[i]). It is the one place an ATOMIC's
// keys are routed (conn.dispatch); exec verifies the result inside the
// transaction. A new participant is inserted at its sorted position, so
// planning needs no scratch and allocates nothing once the batch's slices are
// warm.
func (s *Server) atomicPlan(b *multiBatch) {
	parts, owner := b.parts[:0], b.owner[:0]
	for _, sub := range b.subs {
		sh := s.shards[s.Shard(sub.Key)].route(sub.Key)
		idx, found := slices.BinarySearchFunc(parts, sh, shardCompare)
		if !found {
			parts = slices.Insert(parts, idx, sh)
			for i, o := range owner {
				if o >= idx {
					owner[i] = o + 1
				}
			}
		}
		owner = append(owner, idx)
	}
	b.parts, b.owner = parts, owner
}

// monitor periodically scores every sub-shard with the viewmgr advisor and
// splits the ones it flags. One goroutine per server; splits are rare and
// serialized per group by splitMu.
func (s *Server) monitor() {
	defer s.monitorWG.Done()
	ticker := time.NewTicker(splitCheckEvery)
	defer ticker.Stop()
	for {
		select {
		case <-s.monitorStop:
			return
		case <-ticker.C:
		}
		for _, g := range s.shards {
			for _, sh := range *g.subs.Load() {
				_, depth := unpackRoute(sh.routeBits.Load())
				if 1<<(depth+1) > splitMaxSubShards {
					continue
				}
				snap := sh.view.Snapshot()
				load := viewmgr.ShardLoad{
					Keys:     sh.keys.Load(),
					QueueLen: sh.queue.Len(),
					QueueCap: sh.queue.Cap(),
					Delta:    snap.Delta,
					Quota:    snap.Quota,
				}
				if total := snap.Totals.Commits + snap.Totals.Aborts; total > 0 {
					load.AbortRate = float64(snap.Totals.Aborts) / float64(total)
				}
				if ok, why := viewmgr.ShouldSplit(load, viewmgr.AdvisorConfig{}); ok {
					if err := s.splitShard(g, sh); err != nil {
						s.logf("votmd: shard %d split (%s): %v", g.id, why, err)
					} else {
						s.logf("votmd: shard %d split (%s): %d sub-shards", g.id, why, len(*g.subs.Load()))
					}
				}
			}
		}
	}
}

// splitShard moves the half of sh's keys whose next subMix bit is 1 into a
// brand-new sub-shard. The whole migration runs inside the parent view's
// Exclusive section (paused admission, drained in-flight transactions), so
// concurrent transactions observe either the old or the new ownership,
// never a key caught mid-move; the new routing is published before the
// parent's copies are deleted and before the parent resumes.
func (s *Server) splitShard(g *shardGroup, sh *shard) error {
	g.splitMu.Lock()
	defer g.splitMu.Unlock()
	if s.draining.Load() {
		return ErrServerDraining
	}
	prefix, depth := unpackRoute(sh.routeBits.Load())

	vid := int(s.nextViewID.Add(1))
	v, err := s.rt.CreateView(vid, s.cfg.ShardWords, votm.AdaptiveQuota)
	if err != nil {
		return err
	}
	idx, err := ds.NewSkipList(v, 0)
	if err != nil {
		_ = s.rt.DestroyView(vid)
		return err
	}
	child := s.newShard(sh.id, v, idx)
	child.routeBits.Store(packRoute(prefix|1<<depth, depth+1))

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()

	// moved is the migrating half as redo records, fx what the parent owes
	// its allocator once it has shed them.
	var (
		moved []wal.Record
		fx    effects
	)
	th := s.rt.RegisterThread()
	defer th.Release()
	err = sh.view.Exclusive(ctx, func(ptx votm.Tx) error {
		// Pass 1: find the migrating entries and snapshot their values. The
		// parent is quiescent, so the snapshot cannot go stale.
		sh.idx.ForEach(ptx, func(key, ref uint64) {
			if subMix(key)&(1<<depth) != 0 {
				moved = append(moved, wal.Record{Kind: wal.RecPut, Key: key, Value: enc.LoadBlob(ptx, votm.Addr(ref))})
			}
		})

		// Pass 2: populate the child (it serves nothing yet, so its own
		// transactions never wait).
		if err := child.applyRecords(ctx, th, moved); err != nil {
			return err
		}

		// Pass 3: publish the routing — child first (deepest match wins), then
		// narrow the parent — and only then delete the parent's copies.
		newSubs := append(append([]*shard(nil), *g.subs.Load()...), child)
		g.subs.Store(&newSubs)
		sh.routeBits.Store(packRoute(prefix, depth+1))
		for _, m := range moved {
			sh.del(ptx, &fx, m.Key)
		}
		return nil
	})
	if err != nil {
		// Migration failed before publication (the child could not be
		// populated): tear the child down. Publication itself cannot fail.
		_ = s.rt.DestroyView(vid)
		return err
	}

	// Committed: free the parent-side storage and bring up the child's
	// worker pool.
	sh.settle(&fx, true)
	for w := 0; w < s.cfg.WorkersPerShard; w++ {
		s.workersWG.Add(1)
		go s.worker(child)
	}
	g.splits.Add(1)
	return nil
}
