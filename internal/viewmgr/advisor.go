package viewmgr

import "fmt"

// The split advisor is the planner's counterpart for votmd shards. A KV
// shard cannot split by address range — hash-map nodes and value blobs for
// unrelated keys interleave freely in the heap — so the server splits at the
// key level (a new view plus key migration) and only needs a pure, testable
// answer to "is this shard hot enough that splitting pays?". The signal is
// the same one RAC acts on: measured contention, not configuration.

// ShardLoad summarizes one shard for ShouldSplit.
type ShardLoad struct {
	Keys      int64   // live keys in the shard
	QueueLen  int     // current request-queue depth
	QueueCap  int     // request-queue capacity
	AbortRate float64 // aborts / (commits + aborts)
	Delta     float64 // δ(Q); NaN when undefined (Q ≤ 1)
	Quota     int     // current admission quota
}

const (
	// minSplitKeys gates splitting until the shard holds at least this many
	// keys (splitting a near-empty shard moves nothing).
	minSplitKeys = 1024
	// hotAbortRate marks the shard contended.
	hotAbortRate = 0.25
	// hotQueueFrac marks the shard overloaded when the queue is at least
	// this full.
	hotQueueFrac = 0.5
)

// ShouldSplit reports whether the shard should be split in two, and why.
func ShouldSplit(l ShardLoad) (bool, string) {
	if l.Keys < minSplitKeys {
		return false, fmt.Sprintf("only %d keys (< %d)", l.Keys, minSplitKeys)
	}
	if l.AbortRate >= hotAbortRate {
		return true, fmt.Sprintf("abort rate %.3f >= %.3f", l.AbortRate, hotAbortRate)
	}
	if l.QueueCap > 0 && float64(l.QueueLen) >= hotQueueFrac*float64(l.QueueCap) {
		return true, fmt.Sprintf("queue %d/%d >= %.0f%%", l.QueueLen, l.QueueCap, hotQueueFrac*100)
	}
	// Quota pinned at 1 with work queued: RAC already gave up on optimism;
	// spreading the keys is the remaining lever.
	if l.Quota == 1 && l.QueueLen > 0 {
		return true, "quota locked at 1 with queued work"
	}
	return false, "not contended"
}
