// Package server implements votmd: a sharded transactional key-value
// service over TCP. Each shard is one VOTM view — its own STM instance and
// RAC admission controller — holding a ds.SkipList; keys are hashed to
// shards and values are packed through enc. The network frontend gives the
// paper's admission-control feedback loop (Eq. 5's δ(Q)) real independent
// request streams: a hot shard's quota adapts under client contention while
// cold shards stay wide open.
//
// The wire format is defined in package wire and documented in
// docs/PROTOCOL.md. Connections pipeline: requests carry IDs and responses
// may complete out of order. Each shard has a bounded in-flight queue; when
// it is full the server answers StatusBusy instead of queueing unboundedly
// (backpressure, not buffer bloat). Shutdown drains gracefully: stop
// accepting, finish every dispatched transaction, answer it, then close the
// RAC controllers.
package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"votm"
	"votm/ds"
	"votm/internal/faultinject"
	"votm/wire"
)

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// Shards is the number of serving shards (one view each). Default 8.
	Shards int
	// ShardWords is each shard's initial heap size in words; shards grow on
	// demand. Default 1 << 15.
	ShardWords int

	// WorkersPerShard is the number of executor tokens per shard: how many
	// connection readers may run groups of one shard at once, and therefore
	// the maximum admission quota N. Default 4.
	WorkersPerShard int
	// QueueDepth bounds each shard's dispatched-but-unstarted requests
	// (its ring, ring.go) and the round queue; overflow is answered with
	// StatusBusy. Default 128.
	QueueDepth int
	// BatchMax bounds the group an executor pops from a shard's ring and
	// executes inside one view transaction — one RAC admission and one
	// begin/commit (at Q=1, one lock acquisition) amortized over the whole
	// group (see group.go). 1 disables grouping. Default 16.
	BatchMax int

	// Engine selects the TM algorithm backing every shard. Default NOrec.
	Engine votm.EngineKind
	// AdjustEvery is the RAC adjustment window (completed attempts);
	// zero takes package rac's default.
	AdjustEvery int64
	// MaxConflictRetries is the per-transaction conflict budget before
	// escalation. Default 16.
	MaxConflictRetries int

	// RequestTimeout bounds one transaction's execution (admission wait
	// included). Default 5s.
	RequestTimeout time.Duration

	// Durability selects the crash-durability mode: DurabilityOff (default;
	// memory-only fast path, nothing below applies) or DurabilityGroup
	// (per-shard WAL, one append and at most one fsync per committed write
	// group, responses released only after the group's durability point,
	// periodic snapshots). Group durability requires DataDir.
	Durability string
	// DataDir is the durability root; shard i's WAL segments and snapshots
	// live in DataDir/shard-%04d. Required when Durability is not off.
	DataDir string
	// SnapshotEvery is the periodic snapshot interval. Default 30s.
	SnapshotEvery time.Duration
	// DiskFaultHook, when non-nil, is threaded into every shard's WAL for
	// chaos testing (see internal/faultinject). Leave nil in production.
	DiskFaultHook faultinject.DiskHook

	// FaultHook, when non-nil, is threaded into the runtime for chaos
	// testing (see internal/faultinject). Leave nil in production.
	FaultHook votm.FaultHook

	// Cluster, when non-nil, makes this node a cluster member: the plane
	// behind the seam in cluster.go (internal/cluster builds it). It requires
	// DurabilityGroup: replication streams the per-shard WAL.
	Cluster Cluster

	// Logf, when non-nil, receives server log lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.ShardWords <= 0 {
		c.ShardWords = 1 << 15
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.BatchMax > c.QueueDepth {
		c.BatchMax = c.QueueDepth
	}
	if c.MaxConflictRetries == 0 {
		c.MaxConflictRetries = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Durability == "" {
		c.Durability = DurabilityOff
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	return c
}

// validate rejects configurations withDefaults would otherwise paper over.
// It runs on the raw config — zero means "use the default", negative is an
// error — plus cross-field constraints that survive defaulting.
func (c Config) validate() error {
	numbers := []struct {
		name string
		neg  bool
		v    any
	}{
		{"Shards", c.Shards < 0, c.Shards},
		{"ShardWords", c.ShardWords < 0, c.ShardWords},
		{"WorkersPerShard", c.WorkersPerShard < 0, c.WorkersPerShard},
		{"QueueDepth", c.QueueDepth < 0, c.QueueDepth},
		{"BatchMax", c.BatchMax < 0, c.BatchMax},
		{"AdjustEvery", c.AdjustEvery < 0, c.AdjustEvery},
		{"MaxConflictRetries", c.MaxConflictRetries < 0, c.MaxConflictRetries},
		{"RequestTimeout", c.RequestTimeout < 0, c.RequestTimeout},
		{"SnapshotEvery", c.SnapshotEvery < 0, c.SnapshotEvery},
	}
	for _, n := range numbers {
		if n.neg {
			return fmt.Errorf("server: Config.%s must not be negative, got %v", n.name, n.v)
		}
	}
	switch c.Engine {
	case "", votm.NOrec, votm.OrecEagerRedo, votm.TL2:
	default:
		return fmt.Errorf("server: unknown Config.Engine %q (want %q, %q or %q)", c.Engine, votm.NOrec, votm.OrecEagerRedo, votm.TL2)
	}
	switch c.Durability {
	case "", DurabilityOff:
	case DurabilityGroup:
		if c.DataDir == "" {
			return fmt.Errorf("server: Config.Durability %q requires Config.DataDir", c.Durability)
		}
	default:
		return fmt.Errorf("server: unknown Config.Durability %q (want %q or %q)", c.Durability, DurabilityOff, DurabilityGroup)
	}
	if c.Cluster != nil && c.Durability != DurabilityGroup {
		return fmt.Errorf("server: cluster mode requires Config.Durability %q (replication streams the per-shard WAL), got %q",
			DurabilityGroup, c.Durability)
	}
	return nil
}

// Fixed sizes no deployment has had a measured reason to change.
const (
	// respChannel is the per-connection response channel capacity: how many
	// completed responses may await the connection's write loop before
	// whoever answers (executor, flusher, coordinator) blocks on the send.
	respChannel = 64
	// writeTimeout bounds one response write.
	writeTimeout = 10 * time.Second
	// idleTimeout closes a connection with no complete request for this long.
	idleTimeout = 5 * time.Minute
	// drainGrace is how long a reader reads on once it has seen a drain
	// begin, answering SHUTTING_DOWN every frame that reaches it meanwhile
	// rather than closing the socket over it (a reset for the client).
	drainGrace = 10 * time.Millisecond
	// maxValueLen bounds value sizes (PUT and CAS values, ATOMIC sub-values).
	// A maximal value must still encode into one frame beside its key, status
	// and framing (well under 1 KiB): the next line fails the build if not.
	maxValueLen = 64 << 10
	_           = uint(wire.MaxFrame - 1024 - maxValueLen)
	// readBufSize is the per-connection buffered-reader size.
	readBufSize = 16 << 10
	// writeBufSize is the per-connection write coalescing buffer size;
	// responses at least this large bypass the coalescing buffer and are
	// written through the writev (net.Buffers) path.
	writeBufSize = 16 << 10
	// pendingBlock is the number of requests one conn.charge covers.
	pendingBlock = 64
	// retainMax bounds the buffers a connection keeps for reuse: an object
	// holding more (a large value, a long page or batch) is dropped instead.
	retainMax = 8 << 10
)

// ShardOf maps a key to its shard index: the cluster-wide placement hash,
// wire.ShardOf.
func ShardOf(key uint64, shards int) int { return wire.ShardOf(key, shards) }

// Server is a votmd instance.
type Server struct {
	cfg    Config
	rt     *votm.Runtime
	shards []*shard // in id order, which is the canonical order (shardCompare)
	// pageViews is every shard's view, in that order: what a SCAN page reads.
	pageViews []*votm.View
	start     time.Time

	// xidBase makes cross-shard round IDs unique across process
	// incarnations: decided prepares stay behind in the logs, and recovery
	// must never pair a stale prepare with a fresh decision. By the time new
	// xids are issued, every prior incarnation's prepare has been resolved
	// in-log (resolveCrossShard runs before any connection is served), so the
	// startup-stamped base plus a counter suffices; the completion lists order
	// rounds by it (ackStage.settled).
	xidBase uint64
	xidCtr  atomic.Uint64

	// Durability plumbing (durability.go); inert when Durability is off.
	snapshotStop chan struct{}
	snapshotWG   sync.WaitGroup
	recovery     []RecoveryStats

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}

	// draining + reqMu guard the stop-the-world handshake of Shutdown:
	// beginReq refuses once draining is set, so reqWG.Wait cannot race a
	// late Add. reqWG counts connections until they hang up (conn.hangUp).
	draining atomic.Bool
	reqMu    sync.Mutex
	reqWG    sync.WaitGroup

	// rounds is the server's one multi-shard executor (round.go); batchFree
	// the ATOMIC interpreter-state free list the connection readers acquire
	// from and both executors release to (group.go acquireBatch), bounded at
	// QueueDepth like the queues behind it.
	rounds    *roundCoordinator
	batchFree chan *multiBatch

	connWG sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a server: one runtime, Shards views (IDs 1..Shards, adaptive
// RAC quota each) and their rings. The server is not yet listening; call
// Serve.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		start: time.Now(),
	}
	s.rt = votm.New(votm.Config{
		Threads:            cfg.WorkersPerShard,
		Engine:             cfg.Engine,
		AdjustEvery:        cfg.AdjustEvery,
		MaxConflictRetries: cfg.MaxConflictRetries,
		FaultHook:          cfg.FaultHook,
	})
	s.xidBase = uint64(time.Now().UnixNano()) << 20
	durable := cfg.Durability != DurabilityOff
	var recoveryTh *votm.Thread
	cr := &crossRecovery{horizon: make([]uint64, cfg.Shards)}
	if durable {
		recoveryTh = s.rt.RegisterThread()
		defer recoveryTh.Release()
	}
	for i := 0; i < cfg.Shards; i++ {
		v, err := s.rt.CreateView(i+1, cfg.ShardWords, votm.AdaptiveQuota)
		if err != nil {
			return nil, err
		}
		idx, err := ds.NewSkipList(v, 0)
		if err != nil {
			return nil, err
		}
		sh := s.newShard(i, v, idx)
		if durable {
			// Recover before any connection exists: applyRecords
			// takes snapshot entries and replayed records WAL-free.
			rst, err := s.recoverShard(sh, recoveryTh, cr)
			if err != nil {
				return nil, err
			}
			s.recovery = append(s.recovery, rst)
		}
		s.shards = append(s.shards, sh)
		s.pageViews = append(s.pageViews, sh.view)
	}
	if durable {
		// Nothing is written until every shard has replayed, so a log New
		// refuses leaves every shard's files as it found them. A round left
		// undecided by a crash needs every log's horizon too (it is committed
		// iff all its participants' prepares are durable), so resolution
		// runs here as well — before any executor can append new groups.
		if err := s.startShardLogs(s.shards, recoveryTh, cr); err != nil {
			return nil, err
		}
	}
	s.batchFree = make(chan *multiBatch, cfg.QueueDepth)
	s.rounds = newRoundCoordinator(s)
	go s.rounds.loop()
	for _, sh := range s.shards {
		if sh.log != nil {
			sh.ack = newAckStage(s, sh) // before any executor: they read it unsynchronized
		}
	}
	if durable {
		s.snapshotStop = make(chan struct{})
		s.snapshotWG.Add(1)
		go s.snapshotLoop()
	}
	if m := cfg.Cluster; m != nil {
		handles := make([]*Shard, len(s.shards))
		for i, sh := range s.shards {
			handles[i] = &Shard{s: s, sh: sh}
		}
		if err := m.Start(handles); err != nil {
			_ = s.Shutdown(context.Background())
			return nil, err
		}
	}
	return s, nil
}

// newShard builds one serving shard with its dispatch ring and the ring's
// WorkersPerShard executor tokens.
func (s *Server) newShard(id int, v *votm.View, idx *ds.SkipList) *shard {
	sh := &shard{id: id, view: v, idx: idx, queue: newRingQueue(s.cfg.QueueDepth, s.cfg.WorkersPerShard)}
	sh.redo.sh = sh
	return sh
}

// Recovery returns the per-shard startup-recovery summaries, in shard
// order; empty when durability is off.
func (s *Server) Recovery() []RecoveryStats { return s.recovery }

// Shard returns the shard index serving key.
func (s *Server) Shard(key uint64) int { return ShardOf(key, len(s.shards)) }

// nextXID returns a cross-shard transaction id: unique within the process
// (counter) and across restarts (startup-stamped base, see xidBase).
func (s *Server) nextXID() uint64 { return s.xidBase + s.xidCtr.Add(1) }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until it is closed. It returns nil when
// the listener closed because of Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Shutdown already passed its listener-close step (it saw s.ln nil):
		// close here or nobody will, and Accept would block forever.
		_ = ln.Close()
		return nil
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		// Registered before its goroutine exists, so ordered before retire's
		// waits; a connection accepted after the drain began is closed unread.
		if !s.beginReq() {
			_ = nc.Close()
			continue
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.serveConn(nc)
		}()
	}
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) trackConn(nc net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[nc] = struct{}{}
	} else {
		delete(s.conns, nc)
	}
}

// beginReq registers a connection with the drain; it fails once draining
// started, so Shutdown's reqWG.Wait can never race a late Add.
func (s *Server) beginReq() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// Shutdown drains the server gracefully: stop accepting, stop reading new
// requests, finish and answer every dispatched transaction, then destroy the
// views (closing their RAC controllers) and wait
// for the connections to flush. If ctx expires first, remaining connections
// are force-closed and ctx.Err() is returned; the drain then finishes in the
// background as the in-flight work completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(ctx) })
	return s.shutdownErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.reqMu.Lock()
	s.draining.Store(true)
	s.reqMu.Unlock()

	// The periodic snapshot loop stops first; the drain writes its own final
	// snapshots.
	if s.snapshotStop != nil {
		close(s.snapshotStop)
		s.snapshotWG.Wait()
	}
	if m := s.cfg.Cluster; m != nil {
		// Pending SHARDMAP_WATCHes answer SHUTDOWN now; the replication
		// senders stay up, as the drain's semi-sync waits need followers.
		m.StopControl()
	}

	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	// Wake the readers parked in a frame read: each reads on for drainGrace
	// and stops (conn.readLoop), answering SHUTTING_DOWN whatever arrives
	// meanwhile (no request is lost: anything fully read was either
	// dispatched — and will be answered — or rejected with a typed status). A
	// reader re-arms its idle deadline before it checks draining, so none can
	// re-arm after this wake-up unseen.
	for nc := range s.conns {
		_ = nc.SetReadDeadline(time.Now().Add(drainGrace))
	}
	s.mu.Unlock()

	// The rest of the drain waits on in-flight work, so it runs beside the
	// deadline: when ctx expires first the connections are force-closed and
	// retire finishes on its own once that work completes — the stragglers'
	// answers go to closed sockets, and no goroutine outlives them.
	retired := make(chan struct{})
	go func() {
		defer close(retired)
		s.retire()
	}()
	select {
	case <-retired:
		return nil
	case <-ctx.Done():
		s.forceCloseConns()
		return ctx.Err()
	}
}

// retire is the waiting half of a drain, in dependency order.
func (s *Server) retire() {
	// Every connection stopped reading and was answered — which empties every
	// ring and completion list and settles every round in flight: a queued or
	// listed op and a round's task hold their connection's count. A reader
	// hangs up only after it published and combined what it staged, and a
	// token holder leaves only once it has seen the ring empty, so nothing is
	// left to execute.
	s.reqWG.Wait()
	// The round queue's senders are the connection readers, and reqWG drained
	// above: every reader exited and every task it queued is answered, so no
	// send can race the close. Retire the coordinator, then the flushers —
	// nothing lists anymore, and a flusher that settled the last round has
	// returned from it once it exits.
	s.rounds.stop()
	for _, sh := range s.shards {
		sh.ack.stop()
	}

	// Nothing appends anymore: retire the replication senders.
	if m := s.cfg.Cluster; m != nil {
		m.StopSenders()
	}

	// Nothing executes anymore and every answered write is on disk: write the
	// final snapshots and mark the logs cleanly closed so the next startup
	// skips tail replay (snapshot-on-clean-drain).
	if s.cfg.Durability != DurabilityOff {
		th := s.rt.RegisterThread()
		for _, sh := range s.shards {
			s.closeShardDurability(sh, th)
		}
		th.Release()
	}

	// Close the RAC controllers (and reject any straggling admission).
	for _, sh := range s.shards {
		if err := s.rt.DestroyView(sh.view.ID()); err != nil {
			s.logf("votmd: destroy view %d: %v", sh.view.ID(), err)
		}
	}
	s.connWG.Wait()
}

func (s *Server) forceCloseConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for nc := range s.conns {
		_ = nc.Close()
	}
}

// StatsAll returns every shard's statistics snapshot — what an OpStats
// request for wire.AllShards serves — for in-process consumers (the daemon's
// periodic stats log, tests).
func (s *Server) StatsAll() []wire.ShardStats {
	resp := new(wire.Response)
	s.statsResponse(wire.AllShards, resp)
	return resp.Stats
}

// statsResponse fills resp with an OpStats reply. It runs inline on the
// connection's read goroutine — health and metrics must answer even when every
// shard queue is saturated — and needs no transaction: quota/Totals come from
// the view snapshot accessor and the key count from the shard's counter.
func (s *Server) statsResponse(id uint32, resp *wire.Response) {
	var sel []*shard
	switch {
	case id == wire.AllShards:
		sel = s.shards
	case int(id) < len(s.shards):
		sel = s.shards[id : id+1]
	default:
		resp.Status = wire.StatusBadRequest
		resp.SetDetail(fmt.Sprintf("shard %d out of range", id))
		return
	}
	for _, sh := range sel {
		snap := sh.view.Snapshot()
		var fsyncs uint64
		if sh.log != nil {
			fsyncs = sh.log.Fsyncs()
		}
		snapAge := wire.SnapshotNever
		if at := sh.lastSnap.Load(); at != 0 {
			snapAge = uint64(max(0, time.Now().Unix()-at))
		}
		resp.Stats = append(resp.Stats, wire.ShardStats{
			Shard:          uint32(sh.id),
			Engine:         string(snap.Engine),
			Quota:          uint32(snap.Quota),
			SettledQuota:   uint32(snap.SettledQuota),
			QuotaMoves:     uint64(snap.QuotaMoves),
			Commits:        uint64(snap.Totals.Commits),
			Aborts:         uint64(snap.Totals.Aborts),
			Escalations:    uint64(snap.Totals.Escalations),
			Panics:         uint64(snap.Totals.Panics),
			SuccessNs:      uint64(snap.Totals.SuccessNs),
			AbortNs:        uint64(snap.Totals.AbortNs),
			Delta:          snap.Delta,
			Keys:           uint64(sh.keys.Load()),
			QuotaEvents:    uint64(snap.QuotaMoves),
			Groups:         sh.groups.Load(),
			GroupOps:       sh.groupOps.Load(),
			QueueHighWater: sh.queueHW.Load(),

			EffectiveBatch:    uint64(s.cfg.BatchMax),
			RingFullEvents:    sh.ringFull.Load(),
			QueueHighWaterWin: sh.queueHWRecent(),

			WalAppends:      sh.walAppends.Load(),
			WalBytes:        sh.walBytes.Load(),
			Fsyncs:          fsyncs,
			SnapshotAgeSec:  snapAge,
			ReplayedRecords: sh.replayed.Load(),

			CrossShardGroups:   sh.xsGroups.Load(),
			CrossShardPrepares: sh.xsPrepares.Load(),
			PrepareAborts:      sh.xsPrepareAborts.Load(),

			Scans:       sh.scans.Load(),
			ScannedKeys: sh.scannedKeys.Load(),
		})
		if m := s.cfg.Cluster; m != nil {
			m.Stats(sh.id, &resp.Stats[len(resp.Stats)-1])
		}
	}
}
