// Package cluster is votmd's cluster plane: the shard-map service that
// assigns wire shards to nodes, the standalone seed server that exposes it
// over the SHARDMAP_* opcodes, the node-health monitor that promotes a
// follower when a leader dies, and the Member a votmd node runs — routing by
// role, WAL-stream replication and live handoff (member.go, replication.go).
//
// A Member is the server's Config.Cluster: it plugs into the one seam
// internal/server declares (server.Cluster) and reaches each shard only
// through its *server.Shard handle. It reaches the map through a Seed: the
// in-process *Service on the node hosting it, a *Remote everywhere else.
// Placement itself is protocol (wire.ShardOf).
//
// # Epoch semantics
//
// The map carries one monotonically increasing epoch, bumped on every
// change (join, leader reassignment, death). Each shard route additionally
// records the map epoch at which that shard's placement last changed, so a
// client can tell whether a WRONG_SHARD redirect (whose detail is the
// answering node's map epoch) postdates the map it routed by: a redirect
// with a higher epoch means refetch and retry; one at or below the client's
// epoch means the client raced a node that has not caught up yet, and a
// bounded retry against the freshly fetched map resolves it either way.
package cluster
