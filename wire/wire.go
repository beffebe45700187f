// Package wire defines votmd's length-prefixed binary protocol: the frame
// layout, opcodes, status codes and typed errors shared by the server
// (internal/server) and the Go client (package client). The format is
// documented in docs/PROTOCOL.md; this package is the single source of
// truth for its constants.
//
// Every frame is a little-endian u32 payload length followed by the
// payload. Request payloads start with a version byte, an opcode and a u32
// request ID; response payloads echo the opcode (with the high bit set) and
// the ID, then carry a status byte. Request IDs let a connection pipeline:
// responses may complete out of order and are matched by ID.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version byte written into every encoded frame.
// Versions 1-5 were the steps that grew the protocol to its current shape
// (durability, cross-shard, scan, replication and batching STATS
// meters; multi-shard ATOMIC; SCAN; the cluster control plane); no deployed
// peer speaks them, so decoders accept exactly [MinVersion, Version] = [6, 6]
// and must reject any other version byte with StatusBadRequest (servers) or
// ErrProtocol (clients).
const Version = 6

// MinVersion is the oldest protocol version decoders still accept.
const MinVersion = 6

// MaxFrame bounds a frame's payload size; larger frames indicate a corrupt
// or hostile stream and the connection must be closed.
const MaxFrame = 1 << 20

// MaxAtomicOps bounds the number of sub-operations in one ATOMIC batch.
const MaxAtomicOps = 1024

// MaxScanKeys bounds the number of entries one SCAN page may request or
// carry; larger result sets continue through the response cursor.
const MaxScanKeys = 1024

// respFlag marks a response opcode (request opcode | respFlag).
const respFlag = 0x80

// Op is a protocol opcode.
type Op uint8

// Protocol opcodes.
const (
	OpPing   Op = 0x01 // liveness probe; empty body both ways
	OpGet    Op = 0x02 // key -> value bytes
	OpPut    Op = 0x03 // key + value bytes -> created flag
	OpDelete Op = 0x04 // key -> ok / not found
	OpCAS    Op = 0x05 // key + expected bytes + new bytes
	OpAtomic Op = 0x06 // single-shard multi-key transaction
	OpStats  Op = 0x07 // per-shard statistics snapshot
	OpScan   Op = 0x08 // ordered range read with cursor continuation (v4+)

	// Cluster control plane (v5+). The SHARDMAP_* opcodes talk to the
	// shard-map service (hosted by a votmd node or a standalone seed
	// process); REPLICATE and HANDOFF are node-to-node streams.
	OpShardMapGet    Op = 0x09 // fetch the current shard map
	OpShardMapWatch  Op = 0x0A // long-poll: answer when the map epoch exceeds Key
	OpShardMapJoin   Op = 0x0B // register this node (Value = advertised addr) -> node id + map
	OpShardMapUpdate Op = 0x0C // reassign Shard's leader to node Key -> new map
	OpReplicate      Op = 0x0D // leader->follower WAL batch frames for Shard starting at seq Key
	OpHandoff        Op = 0x0E // leader->target snapshot install for Shard (Phase: begin/entries/commit)

	// OpError is a response-only opcode: the server's reply to a frame it
	// could not parse. The stream is unframed from that point on — the real
	// opcode and request ID are unknowable — so the reply carries ID 0 and
	// this reserved opcode, which can never collide with a pipelined
	// request's pending ID/opcode pair, and the connection is then closed.
	// Clients must treat it as connection-fatal and fail every in-flight
	// request. It is invalid in request frames.
	OpError Op = 0x7F
)

func (o Op) String() string {
	switch o {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpCAS:
		return "CAS"
	case OpAtomic:
		return "ATOMIC"
	case OpStats:
		return "STATS"
	case OpScan:
		return "SCAN"
	case OpShardMapGet:
		return "SHARDMAP_GET"
	case OpShardMapWatch:
		return "SHARDMAP_WATCH"
	case OpShardMapJoin:
		return "SHARDMAP_JOIN"
	case OpShardMapUpdate:
		return "SHARDMAP_UPDATE"
	case OpReplicate:
		return "REPLICATE"
	case OpHandoff:
		return "HANDOFF"
	case OpError:
		return "ERROR"
	}
	return fmt.Sprintf("op(0x%02x)", uint8(o))
}

func (o Op) valid() bool { return (o >= OpPing && o <= OpHandoff) || o == OpError }

// Status is a response status code.
type Status uint8

// Response status codes.
const (
	StatusOK          Status = 0
	StatusNotFound    Status = 1 // GET/DELETE/CAS on an absent key
	StatusBusy        Status = 2 // shard in-flight bound exceeded: backpressure
	StatusCASMismatch Status = 3 // CAS expectation failed; detail = current value
	StatusCrossShard  Status = 4 // legacy (pre-v3): servers now execute multi-shard ATOMIC
	StatusBadRequest  Status = 5 // malformed or semantically invalid request
	StatusTooLarge    Status = 6 // value exceeds the server's value bound
	StatusTxFault     Status = 7 // transaction died server-side (e.g. injected panic)
	StatusShutdown    Status = 8 // server is draining; no new requests accepted
	StatusInternal    Status = 9 // unexpected server error

	// StatusWrongShard (v5) is the cluster redirect: the addressed node does
	// not lead the request's shard. The detail bytes are the node's current
	// shard-map epoch as a little-endian u64 (see WrongShardEpoch) — a client
	// whose map epoch is older must refetch the map and retry against the
	// shard's current leader.
	StatusWrongShard Status = 10
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusBusy:
		return "BUSY"
	case StatusCASMismatch:
		return "CAS_MISMATCH"
	case StatusCrossShard:
		return "CROSS_SHARD"
	case StatusBadRequest:
		return "BAD_REQUEST"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusTxFault:
		return "TX_FAULT"
	case StatusShutdown:
		return "SHUTTING_DOWN"
	case StatusInternal:
		return "INTERNAL"
	case StatusWrongShard:
		return "WRONG_SHARD"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Error is a typed protocol error: a non-OK response status plus its
// optional detail bytes (for StatusCASMismatch the detail is the key's
// current value). errors.Is matches on Status alone, so
// errors.Is(err, wire.ErrBusy) works regardless of detail.
type Error struct {
	Status Status
	Detail []byte
}

func (e *Error) Error() string {
	if len(e.Detail) == 0 || e.Status == StatusCASMismatch {
		return "votmd: " + e.Status.String()
	}
	return fmt.Sprintf("votmd: %s: %s", e.Status, e.Detail)
}

// Is matches any *Error with the same status, making the package-level
// sentinels usable as errors.Is targets.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Status == e.Status
}

// Typed protocol errors, one per non-OK status. Match with errors.Is.
var (
	ErrNotFound    = &Error{Status: StatusNotFound}
	ErrBusy        = &Error{Status: StatusBusy}
	ErrCASMismatch = &Error{Status: StatusCASMismatch}
	ErrCrossShard  = &Error{Status: StatusCrossShard}
	ErrBadRequest  = &Error{Status: StatusBadRequest}
	ErrTooLarge    = &Error{Status: StatusTooLarge}
	ErrTxFault     = &Error{Status: StatusTxFault}
	ErrShutdown    = &Error{Status: StatusShutdown}
	ErrInternal    = &Error{Status: StatusInternal}
	ErrWrongShard  = &Error{Status: StatusWrongShard}
)

// WrongShardDetail encodes a shard-map epoch as WRONG_SHARD detail bytes.
func WrongShardDetail(dst []byte, epoch uint64) []byte { return appendU64(dst, epoch) }

// WrongShardEpoch decodes the shard-map epoch carried by a WRONG_SHARD
// error's detail bytes; 0 if the detail is absent or malformed.
func WrongShardEpoch(detail []byte) uint64 {
	if len(detail) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(detail)
}

// Err converts a status (plus detail) to its typed error; StatusOK is nil.
func (s Status) Err(detail []byte) error {
	if s == StatusOK {
		return nil
	}
	return &Error{Status: s, Detail: detail}
}

// ErrProtocol is returned when a peer violates the framing rules (bad
// version, oversized frame, truncated payload). Unlike an *Error it is not
// recoverable: the connection must be dropped.
var ErrProtocol = errors.New("wire: protocol violation")

// HandoffPhase sequences an OpHandoff snapshot install (v5). A handoff
// ships a shard's state in chunks: one begin frame (Key = the snapshot's
// WAL sequence), any number of entries frames (Value = packed key/value
// entries), and one commit frame (Key = the shard's new epoch, or 0 when
// the install leaves the target a follower rather than the new leader).
type HandoffPhase uint8

// OpHandoff phases.
const (
	HandoffBegin   HandoffPhase = 0
	HandoffEntries HandoffPhase = 1
	HandoffCommit  HandoffPhase = 2
)

func (p HandoffPhase) valid() bool { return p <= HandoffCommit }

// MaxMapNodes bounds the node list of an encoded shard map.
const MaxMapNodes = 1024

// MaxMapShards bounds the shard-route list of an encoded shard map.
const MaxMapShards = 16384

// MaxShardReplicas bounds one shard route's replica list.
const MaxShardReplicas = 8

// NodeInfo is one cluster node in a shard map: its seed-assigned id and
// the address peers and clients dial it at.
type NodeInfo struct {
	ID   uint32
	Addr string
}

// ShardRoute is one wire shard's placement: the node that leads it (serves
// reads and writes), the follower nodes replicating its WAL, and the epoch
// at which this assignment was made. Cluster routing is by parent wire
// shard id — a node's internal auto-split sub-shards are invisible here.
type ShardRoute struct {
	Shard    uint32
	Epoch    uint64
	Leader   uint32
	Replicas []uint32
}

// ShardOf maps a key to its wire shard: the placement every node of a cluster
// and every routing client agree on. Its mix differs from ds.HashMap's and
// from the server's sub-shard mix, so a shard's keys spread over both.
func ShardOf(key uint64, shards int) int {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(shards))
}

// ShardMap is the cluster's epoch-versioned shard→node assignment, served
// by the shard-map service over OpShardMapGet/Watch. Epoch increases on
// every change; a ShardRoute's Epoch records the map epoch at which that
// shard's placement last changed.
type ShardMap struct {
	Epoch  uint64
	Nodes  []NodeInfo
	Shards []ShardRoute
}

// Node returns the NodeInfo with the given id, or nil.
func (m *ShardMap) Node(id uint32) *NodeInfo {
	for i := range m.Nodes {
		if m.Nodes[i].ID == id {
			return &m.Nodes[i]
		}
	}
	return nil
}

// Route returns the ShardRoute for the given wire shard id, or nil.
func (m *ShardMap) Route(shard uint32) *ShardRoute {
	if int(shard) < len(m.Shards) && m.Shards[shard].Shard == shard {
		return &m.Shards[shard]
	}
	for i := range m.Shards {
		if m.Shards[i].Shard == shard {
			return &m.Shards[i]
		}
	}
	return nil
}

// SubKind identifies one sub-operation of an ATOMIC batch.
type SubKind uint8

// ATOMIC sub-operation kinds.
const (
	SubGet    SubKind = 1 // read a key within the batch's transaction
	SubPut    SubKind = 2 // set key to Value
	SubDelete SubKind = 3 // remove key
	SubAdd    SubKind = 4 // 64-bit wrapping add of Delta; absent keys start at 0
)

func (k SubKind) valid() bool { return k >= SubGet && k <= SubAdd }

// Sub is one sub-operation of an ATOMIC batch. The batch executes as one
// transaction regardless of where its keys hash: a batch spanning shards is
// run by the server's round coordinator as a single multi-view transaction.
type Sub struct {
	Kind  SubKind
	Key   uint64
	Value []byte // SubPut payload
	Delta uint64 // SubAdd operand
}

// SubResult is the per-sub-operation outcome of a committed ATOMIC batch.
type SubResult struct {
	Kind   SubKind
	Status Status // StatusOK or StatusNotFound (SubGet/SubDelete on absent keys)
	Value  []byte // SubGet result
	Sum    uint64 // SubAdd result: the key's new value
}

// ShardStats is one shard's statistics snapshot as served by OpStats.
type ShardStats struct {
	Shard        uint32
	Engine       string
	Quota        uint32
	SettledQuota uint32
	QuotaMoves   uint64
	Commits      uint64
	Aborts       uint64
	Escalations  uint64
	Panics       uint64
	SuccessNs    uint64
	AbortNs      uint64
	Delta        float64 // δ(Q) estimate; NaN encoded as its IEEE bits
	Keys         uint64  // live keys in the shard
	QuotaEvents  uint64  // quota changes of the shard's view; equals QuotaMoves
	Repartitions uint64  // online splits executed on this shard (0 unless auto-split is on)

	// Batching meters (group-commit shard workers): Groups counts committed
	// group transactions, GroupOps the requests they carried (GroupOps /
	// Groups = mean group size), and QueueHighWater the maximum observed
	// depth of the sub-shard's request queue since startup.
	Groups         uint64
	GroupOps       uint64
	QueueHighWater uint64

	// Durability meters (zero when the server runs with durability off). WalAppends counts WAL batch
	// appends (one per durable write group), WalBytes the bytes they wrote,
	// Fsyncs the fsync calls actually issued (≤ WalAppends thanks to
	// group-commit piggybacking), SnapshotAgeSec the seconds since the
	// shard's last snapshot (SnapshotNever if none yet), and ReplayedRecords
	// the redo records replayed during this process's startup recovery.
	WalAppends      uint64
	WalBytes        uint64
	Fsyncs          uint64
	SnapshotAgeSec  uint64
	ReplayedRecords uint64

	// Cross-shard ATOMIC meters. CrossShardGroups counts committed multi-shard groups this
	// shard participated in, CrossShardPrepares the 2PC prepare records it
	// appended, and PrepareAborts the prepares that ended in an abort
	// (mid-protocol WAL fault, or an undecided prepare aborted by startup
	// recovery).
	CrossShardGroups   uint64
	CrossShardPrepares uint64
	PrepareAborts      uint64

	// Scan meters. Scans counts SCAN pages this shard coordinated; ScannedKeys the entries it
	// contributed to any page's merge.
	Scans       uint64
	ScannedKeys uint64

	// Replication meters (zero outside cluster mode). FollowerAcks is the leader's acked-follower
	// watermark: the highest WAL sequence every live follower has durably
	// acknowledged (0 with no followers attached). ReplicaLagRecords is the
	// leader's last-appended sequence minus that watermark. Handoffs counts
	// HANDOFF installs and live shard moves this shard took part in.
	FollowerAcks      uint64
	ReplicaLagRecords uint64
	Handoffs          uint64

	// Batching meters. EffectiveBatch is the group-size bound, the server's
	// BatchMax. AdmissionRejects is always 0: it stays in the v6 layout, but
	// a full dispatch queue is the one source of BUSY, counted by
	// RingFullEvents. QueueHighWaterWin is the queue high-water over the last
	// two 15 s windows — the decayed companion to the lifetime QueueHighWater.
	EffectiveBatch    uint64
	AdmissionRejects  uint64
	RingFullEvents    uint64
	QueueHighWaterWin uint64
}

// SnapshotNever is the SnapshotAgeSec sentinel meaning "no snapshot yet".
const SnapshotNever = ^uint64(0)

// AllShards is the OpStats shard selector meaning "every shard".
const AllShards = ^uint32(0)

// Request is a decoded request frame. Fields beyond Op/ID are populated
// per-opcode: Key (GET/PUT/DELETE/CAS; SCAN start key), Value (PUT/CAS new
// value), OldValue (CAS expectation), Subs (ATOMIC), Shard (STATS),
// End/Limit/Cursor/HasCursor (SCAN).
//
// Decoded byte fields (Value, OldValue, Sub.Value) borrow the parsed
// payload: they are sub-slices of the buffer handed to ParseRequest /
// ParseRequestReuse and stay valid only as long as that buffer does. A
// request read by ReadRequestReuse owns its frame buffer, so its borrowed
// fields live until the next ReadRequestReuse into it: a caller that reuses
// requests (the server keeps them per connection) must be done with every
// borrowed slice before it reads into one again.
type Request struct {
	Op       Op
	ID       uint32
	Key      uint64
	Value    []byte
	OldValue []byte
	Subs     []Sub
	Shard    uint32

	// SCAN fields (v4+): the request asks for up to Limit entries of the
	// half-open key range [Key, End). A continuation page sets HasCursor and
	// resumes at Cursor (the cursor a previous response returned). Limit is
	// capped at MaxScanKeys at the framing layer; range/cursor semantics
	// (empty range, cursor outside the range) are validated by the server,
	// which answers BAD_REQUEST rather than poisoning the stream.
	End       uint64
	Cursor    uint64
	Limit     uint32
	HasCursor bool

	// Phase sequences an OpHandoff install (v5). The cluster opcodes reuse
	// the fields above: SHARDMAP_WATCH carries the caller's map epoch in
	// Key; SHARDMAP_JOIN its advertised address in Value; SHARDMAP_UPDATE
	// the shard in Shard and the new leader's node id in Key; REPLICATE the
	// shard in Shard, the first batch sequence in Key (0 = probe) and raw
	// CRC-framed WAL batch frames in Value; HANDOFF the shard in Shard plus
	// per-phase Key/Value (see HandoffPhase).
	Phase HandoffPhase

	// frame is the retained frame-payload buffer of a reused request
	// (ReadRequestReuse reads into it; the byte fields above borrow it).
	frame []byte
}

// ScanEntry is one key/value pair of a SCAN result page. Value borrows the
// parsed payload buffer like every other decoded byte field.
type ScanEntry struct {
	Key   uint64
	Value []byte
}

// Response is a decoded response frame. Value carries GET results and
// non-OK detail bytes; Subs carries ATOMIC results; Stats carries STATS
// results; Created reports whether a PUT inserted (vs updated); Entries,
// More and Cursor carry a SCAN page (More set means the range has further
// entries and Cursor is where the next page resumes).
//
// Like Request, decoded byte fields borrow the parsed payload buffer.
type Response struct {
	Op      Op
	ID      uint32
	Status  Status
	Value   []byte
	Created bool
	Subs    []SubResult
	Stats   []ShardStats
	Entries []ScanEntry
	More    bool
	Cursor  uint64

	// Map carries the shard map of an OK SHARDMAP_GET/WATCH/JOIN/UPDATE
	// response (v5). Unlike the borrowed byte fields it owns its memory —
	// the control plane is off the hot path, so decode copies. Cursor is
	// reused by the cluster opcodes: SHARDMAP_JOIN returns the assigned
	// node id, REPLICATE and HANDOFF the follower's next expected WAL
	// sequence.
	Map ShardMap

	// Next chains responses for batched producer→writer hand-off (a group
	// worker sends a whole group's responses for one connection as a single
	// chain). It is transport plumbing, never encoded, and cleared by whoever
	// reuses the response.
	Next *Response

	frame []byte // retained frame buffer of a reused response (ReadResponseReuse)
}

// Err returns the response's typed error, nil for StatusOK. The returned
// error's Detail aliases r.Value; callers that outlive r (a reused response)
// must copy it.
func (r *Response) Err() error { return r.Status.Err(r.Value) }

// SetDetail sets r.Value to the bytes of s, reusing r.Value's capacity —
// the reuse-friendly way to attach a status detail.
func (r *Response) SetDetail(s string) { r.Value = append(r.Value[:0], s...) }

// reset clears every field but the retained buffers (frame, Subs capacity) one
// by one: assigning a whole Request copies it twice (TestResetClearsEveryField).
func (r *Request) reset() {
	clear(r.Subs) // drop value aliases
	r.Op, r.ID, r.Key, r.Shard = 0, 0, 0, 0
	r.Value, r.OldValue, r.Subs = nil, nil, r.Subs[:0]
	r.End, r.Cursor, r.Limit, r.HasCursor = 0, 0, 0, false
	r.Phase = 0
}

// reset is Request.reset's twin; Value and Entries keep their capacity too.
func (r *Response) reset() {
	clear(r.Subs)
	clear(r.Entries) // drop value aliases
	r.Op, r.ID, r.Status, r.Created = 0, 0, 0, false
	r.Value, r.Subs, r.Entries, r.Stats = r.Value[:0], r.Subs[:0], r.Entries[:0], nil
	r.More, r.Cursor = false, 0
	r.Map.Epoch, r.Map.Nodes, r.Map.Shards = 0, nil, nil
	r.Next = nil
}

// --- encoding ----------------------------------------------------------

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBytes(b, p []byte) []byte {
	b = appendU32(b, uint32(len(p)))
	return append(b, p...)
}

// beginFrame reserves the 4-byte length prefix in dst; endFrame patches it
// once the payload has been appended in place. Encoding straight into dst
// (instead of building a payload and copying it) keeps AppendRequest and
// AppendResponse allocation-free when dst has capacity.
func beginFrame(dst []byte) (start int, out []byte) {
	return len(dst), append(dst, 0, 0, 0, 0)
}

func endFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrProtocol, n)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// AppendRequest appends r's frame (length prefix included) to dst. It
// allocates nothing when dst has capacity for the frame.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if !r.Op.valid() || r.Op == OpError {
		return dst, fmt.Errorf("%w: bad opcode %v", ErrProtocol, r.Op)
	}
	start, p := beginFrame(dst)
	p = append(p, Version, byte(r.Op))
	p = appendU32(p, r.ID)
	switch r.Op {
	case OpPing:
	case OpGet, OpDelete:
		p = appendU64(p, r.Key)
	case OpPut:
		p = appendU64(p, r.Key)
		p = appendBytes(p, r.Value)
	case OpCAS:
		p = appendU64(p, r.Key)
		p = appendBytes(p, r.OldValue)
		p = appendBytes(p, r.Value)
	case OpAtomic:
		if len(r.Subs) == 0 || len(r.Subs) > MaxAtomicOps {
			return p[:start], fmt.Errorf("%w: atomic batch of %d ops", ErrProtocol, len(r.Subs))
		}
		p = appendU16(p, uint16(len(r.Subs)))
		for _, s := range r.Subs {
			if !s.Kind.valid() {
				return p[:start], fmt.Errorf("%w: bad sub kind %d", ErrProtocol, s.Kind)
			}
			p = append(p, byte(s.Kind))
			p = appendU64(p, s.Key)
			switch s.Kind {
			case SubPut:
				p = appendBytes(p, s.Value)
			case SubAdd:
				p = appendU64(p, s.Delta)
			}
		}
	case OpStats:
		p = appendU32(p, r.Shard)
	case OpScan:
		if r.Limit > MaxScanKeys {
			return p[:start], fmt.Errorf("%w: scan limit %d exceeds MaxScanKeys", ErrProtocol, r.Limit)
		}
		p = appendU64(p, r.Key)
		p = appendU64(p, r.End)
		p = appendU64(p, r.Cursor)
		p = appendU32(p, r.Limit)
		var flags byte
		if r.HasCursor {
			flags |= 1
		}
		p = append(p, flags)
	case OpShardMapGet:
	case OpShardMapWatch:
		p = appendU64(p, r.Key)
	case OpShardMapJoin:
		p = appendBytes(p, r.Value)
	case OpShardMapUpdate:
		p = appendU32(p, r.Shard)
		p = appendU64(p, r.Key)
	case OpReplicate:
		p = appendU32(p, r.Shard)
		p = appendU64(p, r.Key)
		p = appendBytes(p, r.Value)
	case OpHandoff:
		if !r.Phase.valid() {
			return p[:start], fmt.Errorf("%w: bad handoff phase %d", ErrProtocol, r.Phase)
		}
		p = appendU32(p, r.Shard)
		p = append(p, byte(r.Phase))
		p = appendU64(p, r.Key)
		p = appendBytes(p, r.Value)
	}
	return endFrame(p, start)
}

// appendShardMap appends m's encoding: epoch, node list, shard-route list.
func appendShardMap(p []byte, m *ShardMap) ([]byte, error) {
	if len(m.Nodes) > MaxMapNodes {
		return p, fmt.Errorf("%w: shard map with %d nodes", ErrProtocol, len(m.Nodes))
	}
	if len(m.Shards) > MaxMapShards {
		return p, fmt.Errorf("%w: shard map with %d shards", ErrProtocol, len(m.Shards))
	}
	p = appendU64(p, m.Epoch)
	p = appendU16(p, uint16(len(m.Nodes)))
	for _, n := range m.Nodes {
		p = appendU32(p, n.ID)
		if len(n.Addr) > math.MaxUint8 {
			return p, fmt.Errorf("%w: node address too long", ErrProtocol)
		}
		p = append(p, byte(len(n.Addr)))
		p = append(p, n.Addr...)
	}
	p = appendU32(p, uint32(len(m.Shards)))
	for _, r := range m.Shards {
		if len(r.Replicas) > MaxShardReplicas {
			return p, fmt.Errorf("%w: shard route with %d replicas", ErrProtocol, len(r.Replicas))
		}
		p = appendU32(p, r.Shard)
		p = appendU64(p, r.Epoch)
		p = appendU32(p, r.Leader)
		p = append(p, byte(len(r.Replicas)))
		for _, id := range r.Replicas {
			p = appendU32(p, id)
		}
	}
	return p, nil
}

// AppendResponse appends r's frame (length prefix included) to dst. It
// allocates nothing when dst has capacity for the frame.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if !r.Op.valid() {
		return dst, fmt.Errorf("%w: bad opcode %v", ErrProtocol, r.Op)
	}
	start, p := beginFrame(dst)
	p = append(p, Version, byte(r.Op)|respFlag)
	p = appendU32(p, r.ID)
	p = append(p, byte(r.Status))
	if r.Status != StatusOK {
		// Non-OK responses carry only detail bytes (CAS mismatch: the
		// current value; otherwise a human-readable message).
		p = appendBytes(p, r.Value)
		return endFrame(p, start)
	}
	switch r.Op {
	case OpPing, OpDelete, OpCAS, OpError:
	case OpGet:
		p = appendBytes(p, r.Value)
	case OpPut:
		var created byte
		if r.Created {
			created = 1
		}
		p = append(p, created)
	case OpAtomic:
		p = appendU16(p, uint16(len(r.Subs)))
		for _, s := range r.Subs {
			p = append(p, byte(s.Kind), byte(s.Status))
			switch {
			case s.Kind == SubGet && s.Status == StatusOK:
				p = appendBytes(p, s.Value)
			case s.Kind == SubAdd:
				p = appendU64(p, s.Sum)
			}
		}
	case OpScan:
		if len(r.Entries) > MaxScanKeys {
			return p[:start], fmt.Errorf("%w: scan page of %d entries", ErrProtocol, len(r.Entries))
		}
		p = appendU16(p, uint16(len(r.Entries)))
		for _, e := range r.Entries {
			p = appendU64(p, e.Key)
			p = appendBytes(p, e.Value)
		}
		var more byte
		if r.More {
			more = 1
		}
		p = append(p, more)
		p = appendU64(p, r.Cursor)
	case OpStats:
		p = appendU16(p, uint16(len(r.Stats)))
		for _, s := range r.Stats {
			p = appendU32(p, s.Shard)
			if len(s.Engine) > math.MaxUint8 {
				return p[:start], fmt.Errorf("%w: engine name too long", ErrProtocol)
			}
			p = append(p, byte(len(s.Engine)))
			p = append(p, s.Engine...)
			p = appendU32(p, s.Quota)
			p = appendU32(p, s.SettledQuota)
			for _, v := range [...]uint64{
				s.QuotaMoves, s.Commits, s.Aborts, s.Escalations, s.Panics,
				s.SuccessNs, s.AbortNs, math.Float64bits(s.Delta), s.Keys,
				s.QuotaEvents, s.Repartitions,
				s.Groups, s.GroupOps, s.QueueHighWater,
				s.WalAppends, s.WalBytes, s.Fsyncs, s.SnapshotAgeSec,
				s.ReplayedRecords,
				s.CrossShardGroups, s.CrossShardPrepares, s.PrepareAborts,
				s.Scans, s.ScannedKeys,
				s.FollowerAcks, s.ReplicaLagRecords, s.Handoffs,
				s.EffectiveBatch, s.AdmissionRejects, s.RingFullEvents,
				s.QueueHighWaterWin,
			} {
				p = appendU64(p, v)
			}
		}
	case OpShardMapGet, OpShardMapWatch, OpShardMapUpdate:
		var err error
		if p, err = appendShardMap(p, &r.Map); err != nil {
			return p[:start], err
		}
	case OpShardMapJoin:
		p = appendU64(p, r.Cursor)
		var err error
		if p, err = appendShardMap(p, &r.Map); err != nil {
			return p[:start], err
		}
	case OpReplicate, OpHandoff:
		p = appendU64(p, r.Cursor)
	}
	return endFrame(p, start)
}

// WriteRequest writes r as one frame.
func WriteRequest(w io.Writer, r *Request) error {
	b, err := AppendRequest(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// WriteResponse writes r as one frame.
func WriteResponse(w io.Writer, r *Response) error {
	b, err := AppendResponse(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// --- decoding ----------------------------------------------------------

// cursor walks a payload; the first short read poisons it so parse code can
// decode straight-line and check err once.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("%w: truncated payload", ErrProtocol)
	}
}

func (c *cursor) u8() uint8 {
	if c.err != nil || c.off+1 > len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if c.err != nil || c.off+2 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// bytes decodes a u32 length prefix and returns that many bytes as a
// sub-slice of the payload — no copy, so decoded requests and responses
// borrow the buffer they were parsed from (capped capacity keeps an append
// by the caller from clobbering adjacent payload bytes).
func (c *cursor) bytes() []byte {
	n := int(c.u32())
	if c.err != nil || n > len(c.b)-c.off {
		c.fail()
		return nil
	}
	out := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return out
}

func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProtocol, len(c.b)-c.off)
	}
	return nil
}

// readFrameReuse reads one length-prefixed payload into buf, growing it
// only when the frame exceeds its capacity.
func readFrameReuse(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into the retained buffer itself: a local [4]byte
	// would escape through the io.Reader interface, costing an allocation
	// per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err // io.EOF passes through for clean stream end
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > MaxFrame {
		return buf, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame", ErrProtocol, n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// ReadRequest reads and decodes one request frame. io.EOF means the peer
// closed cleanly between frames.
func ReadRequest(r io.Reader) (*Request, error) {
	p, err := readFrameReuse(r, nil)
	if err != nil {
		return nil, err
	}
	return ParseRequest(p)
}

// ReadRequestReuse reads one request frame into req's retained buffer and
// parses it in place — the allocation-free server read path. req's decoded
// fields borrow that buffer and stay valid until the next ReadRequestReuse
// on req.
func ReadRequestReuse(r io.Reader, req *Request) error {
	frame, err := readFrameReuse(r, req.frame)
	req.frame = frame
	if err != nil {
		return err
	}
	return ParseRequestReuse(req, frame)
}

// ParseRequest decodes a request payload (frame length already stripped).
// The returned request borrows p.
func ParseRequest(p []byte) (*Request, error) {
	req := new(Request)
	if err := req.parse(p); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseRequestReuse decodes a request payload into req, reusing its Subs
// capacity. req's byte fields borrow p; whatever req held is cleared first.
func ParseRequestReuse(req *Request, p []byte) error {
	req.reset()
	if err := req.parse(p); err != nil {
		// Leave no stale borrowed slices behind a parse error.
		req.reset()
		return err
	}
	return nil
}

func (req *Request) parse(p []byte) error {
	c := &cursor{b: p}
	ver := c.u8()
	if c.err == nil && (ver < MinVersion || ver > Version) {
		return fmt.Errorf("%w: version %d", ErrProtocol, ver)
	}
	op := Op(c.u8())
	if c.err == nil && (!op.valid() || op == OpError) {
		return fmt.Errorf("%w: bad opcode %v", ErrProtocol, op)
	}
	req.Op, req.ID = op, c.u32()
	switch op {
	case OpPing:
	case OpGet, OpDelete:
		req.Key = c.u64()
	case OpPut:
		req.Key = c.u64()
		req.Value = c.bytes()
	case OpCAS:
		req.Key = c.u64()
		req.OldValue = c.bytes()
		req.Value = c.bytes()
	case OpAtomic:
		n := int(c.u16())
		if c.err == nil && (n == 0 || n > MaxAtomicOps) {
			return fmt.Errorf("%w: atomic batch of %d ops", ErrProtocol, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			s := Sub{Kind: SubKind(c.u8())}
			if c.err == nil && !s.Kind.valid() {
				return fmt.Errorf("%w: bad sub kind %d", ErrProtocol, s.Kind)
			}
			s.Key = c.u64()
			switch s.Kind {
			case SubPut:
				s.Value = c.bytes()
			case SubAdd:
				s.Delta = c.u64()
			}
			req.Subs = append(req.Subs, s)
		}
	case OpStats:
		req.Shard = c.u32()
	case OpScan:
		req.Key = c.u64()
		req.End = c.u64()
		req.Cursor = c.u64()
		req.Limit = c.u32()
		if c.err == nil && req.Limit > MaxScanKeys {
			return fmt.Errorf("%w: scan limit %d exceeds MaxScanKeys", ErrProtocol, req.Limit)
		}
		// Unknown flag bits are ignored, matching the struct-level round-trip
		// contract of the other boolean fields.
		req.HasCursor = c.u8()&1 == 1
	case OpShardMapGet:
	case OpShardMapWatch:
		req.Key = c.u64()
	case OpShardMapJoin:
		req.Value = c.bytes()
	case OpShardMapUpdate:
		req.Shard = c.u32()
		req.Key = c.u64()
	case OpReplicate:
		req.Shard = c.u32()
		req.Key = c.u64()
		req.Value = c.bytes()
	case OpHandoff:
		req.Shard = c.u32()
		req.Phase = HandoffPhase(c.u8())
		if c.err == nil && !req.Phase.valid() {
			return fmt.Errorf("%w: bad handoff phase %d", ErrProtocol, req.Phase)
		}
		req.Key = c.u64()
		req.Value = c.bytes()
	}
	return c.done()
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader) (*Response, error) {
	p, err := readFrameReuse(r, nil)
	if err != nil {
		return nil, err
	}
	return ParseResponse(p)
}

// ReadResponseReuse reads one response frame into resp's retained buffer
// and parses it in place — the allocation-free client read path. resp's
// decoded fields borrow that buffer and stay valid until the next
// ReadResponseReuse on resp.
func ReadResponseReuse(r io.Reader, resp *Response) error {
	frame, err := readFrameReuse(r, resp.frame)
	resp.frame = frame
	if err != nil {
		return err
	}
	return ParseResponseReuse(resp, frame)
}

// ParseResponse decodes a response payload (frame length already
// stripped). The returned response borrows p.
func ParseResponse(p []byte) (*Response, error) {
	resp := new(Response)
	if err := resp.parse(p); err != nil {
		return nil, err
	}
	return resp, nil
}

// ParseResponseReuse decodes a response payload into resp, reusing its
// Subs capacity. resp's byte fields borrow p; whatever resp held is cleared
// first.
func ParseResponseReuse(resp *Response, p []byte) error {
	resp.reset()
	if err := resp.parse(p); err != nil {
		resp.reset()
		return err
	}
	return nil
}

func (resp *Response) parse(p []byte) error {
	c := &cursor{b: p}
	ver := c.u8()
	if c.err == nil && (ver < MinVersion || ver > Version) {
		return fmt.Errorf("%w: version %d", ErrProtocol, ver)
	}
	rawOp := c.u8()
	if c.err == nil && rawOp&respFlag == 0 {
		return fmt.Errorf("%w: request opcode in response frame", ErrProtocol)
	}
	op := Op(rawOp &^ respFlag)
	if c.err == nil && !op.valid() {
		return fmt.Errorf("%w: bad opcode %v", ErrProtocol, op)
	}
	resp.Op, resp.ID, resp.Status = op, c.u32(), Status(c.u8())
	if resp.Status != StatusOK {
		resp.Value = c.bytes()
		return c.done()
	}
	switch op {
	case OpPing, OpDelete, OpCAS, OpError:
	case OpGet:
		resp.Value = c.bytes()
	case OpPut:
		resp.Created = c.u8() == 1
	case OpAtomic:
		n := int(c.u16())
		if c.err == nil && n > MaxAtomicOps {
			return fmt.Errorf("%w: atomic result of %d ops", ErrProtocol, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			s := SubResult{Kind: SubKind(c.u8()), Status: Status(c.u8())}
			switch {
			case s.Kind == SubGet && s.Status == StatusOK:
				s.Value = c.bytes()
			case s.Kind == SubAdd:
				s.Sum = c.u64()
			}
			resp.Subs = append(resp.Subs, s)
		}
	case OpScan:
		n := int(c.u16())
		if c.err == nil && n > MaxScanKeys {
			return fmt.Errorf("%w: scan page of %d entries", ErrProtocol, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			e := ScanEntry{Key: c.u64()}
			e.Value = c.bytes()
			resp.Entries = append(resp.Entries, e)
		}
		resp.More = c.u8() == 1
		resp.Cursor = c.u64()
	case OpStats:
		n := int(c.u16())
		for i := 0; i < n && c.err == nil; i++ {
			var s ShardStats
			s.Shard = c.u32()
			nameLen := int(c.u8())
			if c.err == nil && nameLen > len(c.b)-c.off {
				c.fail()
			} else if c.err == nil {
				s.Engine = string(c.b[c.off : c.off+nameLen])
				c.off += nameLen
			}
			s.Quota = c.u32()
			s.SettledQuota = c.u32()
			s.QuotaMoves = c.u64()
			s.Commits = c.u64()
			s.Aborts = c.u64()
			s.Escalations = c.u64()
			s.Panics = c.u64()
			s.SuccessNs = c.u64()
			s.AbortNs = c.u64()
			s.Delta = math.Float64frombits(c.u64())
			s.Keys = c.u64()
			s.QuotaEvents = c.u64()
			s.Repartitions = c.u64()
			s.Groups = c.u64()
			s.GroupOps = c.u64()
			s.QueueHighWater = c.u64()
			s.WalAppends = c.u64()
			s.WalBytes = c.u64()
			s.Fsyncs = c.u64()
			s.SnapshotAgeSec = c.u64()
			s.ReplayedRecords = c.u64()
			s.CrossShardGroups = c.u64()
			s.CrossShardPrepares = c.u64()
			s.PrepareAborts = c.u64()
			s.Scans = c.u64()
			s.ScannedKeys = c.u64()
			s.FollowerAcks = c.u64()
			s.ReplicaLagRecords = c.u64()
			s.Handoffs = c.u64()
			s.EffectiveBatch = c.u64()
			s.AdmissionRejects = c.u64()
			s.RingFullEvents = c.u64()
			s.QueueHighWaterWin = c.u64()
			resp.Stats = append(resp.Stats, s)
		}
	case OpShardMapGet, OpShardMapWatch, OpShardMapUpdate:
		c.shardMap(&resp.Map)
	case OpShardMapJoin:
		resp.Cursor = c.u64()
		c.shardMap(&resp.Map)
	case OpReplicate, OpHandoff:
		resp.Cursor = c.u64()
	}
	return c.done()
}

// shardMap decodes a ShardMap, copying addresses and replica lists so the
// result owns its memory (the control plane is off the pooled hot path).
func (c *cursor) shardMap(m *ShardMap) {
	m.Epoch = c.u64()
	nn := int(c.u16())
	if c.err == nil && nn > MaxMapNodes {
		c.err = fmt.Errorf("%w: shard map with %d nodes", ErrProtocol, nn)
		return
	}
	for i := 0; i < nn && c.err == nil; i++ {
		n := NodeInfo{ID: c.u32()}
		addrLen := int(c.u8())
		if c.err == nil && addrLen > len(c.b)-c.off {
			c.fail()
			return
		}
		if c.err == nil {
			n.Addr = string(c.b[c.off : c.off+addrLen])
			c.off += addrLen
		}
		m.Nodes = append(m.Nodes, n)
	}
	ns := int(c.u32())
	if c.err == nil && ns > MaxMapShards {
		c.err = fmt.Errorf("%w: shard map with %d shards", ErrProtocol, ns)
		return
	}
	for i := 0; i < ns && c.err == nil; i++ {
		r := ShardRoute{Shard: c.u32(), Epoch: c.u64(), Leader: c.u32()}
		nr := int(c.u8())
		if c.err == nil && nr > MaxShardReplicas {
			c.err = fmt.Errorf("%w: shard route with %d replicas", ErrProtocol, nr)
			return
		}
		for j := 0; j < nr && c.err == nil; j++ {
			r.Replicas = append(r.Replicas, c.u32())
		}
		m.Shards = append(m.Shards, r)
	}
}
