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
	"errors"
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
	// Addr is the TCP listen address for ListenAndServe. Default ":7421".
	Addr string

	// Shards is the number of serving shards (one view each). Default 8.
	Shards int
	// ShardWords is each shard's initial heap size in words; shards grow on
	// demand. Default 1 << 15.
	ShardWords int

	// WorkersPerShard is the number of transaction workers (and therefore
	// the maximum admission quota N) per shard. Default 4.
	WorkersPerShard int
	// QueueDepth bounds each shard's dispatched-but-unstarted requests
	// (rounded up to a power of two by the ring queue, ring.go); overflow is
	// answered with StatusBusy. Default 128.
	QueueDepth int
	// BatchMax bounds the group a shard worker drains per wakeup and
	// executes inside one view transaction — one RAC admission and one
	// begin/commit (at Q=1, one lock acquisition) amortized over the whole
	// group (see group.go). 1 disables grouping. Default 16.
	BatchMax int
	// MaxValueLen bounds value sizes. Default 64 KiB.
	MaxValueLen int

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
	// WriteTimeout bounds one response write. Default 10s.
	WriteTimeout time.Duration
	// IdleTimeout closes a connection with no complete request for this
	// long. Default 5m.
	IdleTimeout time.Duration

	// AutoSplit enables automatic shard splitting (split.go): hot shards —
	// by abort rate, queue pressure, or lock-mode collapse — are split into
	// sub-shards with live key migration. An ATOMIC batch whose keys end up
	// on different sub-shards after a split still executes with full
	// atomicity, as one multi-view transaction over every participant
	// (round.go runRound); the cost is a quiescence of each involved
	// sub-shard, so point-op-dominated workloads split most profitably (see
	// docs/PROTOCOL.md). The advisor runs every splitCheckEvery with the
	// viewmgr defaults (no shard under 1024 keys splits), and a wire-level
	// shard splits into at most splitMaxSubShards sub-shards. Default off.
	AutoSplit bool

	// Durability selects the crash-durability mode: DurabilityOff (default;
	// memory-only fast path, nothing below applies), DurabilityGroup
	// (per-shard WAL, one append and at most one fsync per committed write
	// group, responses released only after the group's durability point) or
	// DurabilitySnapshotOnly (periodic snapshots, no WAL). Durable modes
	// require DataDir and are mutually exclusive with AutoSplit: the data
	// layout is one directory per wire-level shard.
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
	if c.Addr == "" {
		c.Addr = ":7421"
	}
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
	if c.MaxValueLen <= 0 {
		c.MaxValueLen = 64 << 10
	}
	if c.MaxConflictRetries == 0 {
		c.MaxConflictRetries = 16
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
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
	sizes := []struct {
		name string
		v    int64
	}{
		{"Shards", int64(c.Shards)},
		{"ShardWords", int64(c.ShardWords)},
		{"WorkersPerShard", int64(c.WorkersPerShard)},
		{"QueueDepth", int64(c.QueueDepth)},
		{"BatchMax", int64(c.BatchMax)},
		{"MaxValueLen", int64(c.MaxValueLen)},
	}
	for _, s := range sizes {
		if s.v < 0 {
			return fmt.Errorf("server: Config.%s must not be negative, got %d", s.name, s.v)
		}
	}
	// A maximal value must still encode into one frame (key, status and
	// framing overhead stay well under 1 KiB).
	if c.MaxValueLen > wire.MaxFrame-1024 {
		return fmt.Errorf("server: Config.MaxValueLen (%d) exceeds the wire frame budget (%d)", c.MaxValueLen, wire.MaxFrame-1024)
	}
	switch c.Durability {
	case "", DurabilityOff:
	case DurabilityGroup, DurabilitySnapshotOnly:
		if c.DataDir == "" {
			return fmt.Errorf("server: Config.Durability %q requires Config.DataDir", c.Durability)
		}
		if c.AutoSplit {
			return fmt.Errorf("server: Config.Durability %q is incompatible with Config.AutoSplit (the durable data layout is one directory per wire-level shard)", c.Durability)
		}
	default:
		return fmt.Errorf("server: unknown Config.Durability %q (want %q, %q or %q)",
			c.Durability, DurabilityOff, DurabilityGroup, DurabilitySnapshotOnly)
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
	// whoever answers (worker, flusher, coordinator) blocks on the send.
	respChannel = 64
	// readBufSize is the per-connection buffered-reader size.
	readBufSize = 16 << 10
	// writeBufSize is the per-connection write coalescing buffer size;
	// responses at least this large bypass the coalescing buffer and are
	// written through the writev (net.Buffers) path.
	writeBufSize = 16 << 10
	// pendingBlock is the number of requests one conn.charge covers.
	pendingBlock = 64
	// stockMax bounds each end of a connection's free lists, above a client's
	// pipelining window; an object holding a buffer past retainMax bytes (a
	// large value, a long page or batch) is dropped instead of kept.
	stockMax  = 256
	retainMax = 8 << 10
	// splitCheckEvery is the split advisor's polling period, and
	// splitMaxSubShards the most sub-shards one wire-level shard splits into.
	splitCheckEvery   = 250 * time.Millisecond
	splitMaxSubShards = 8
)

// ErrServerDraining is returned for operations attempted after Shutdown
// began (e.g. a shard split racing the drain).
var ErrServerDraining = errors.New("server: draining")

// ShardOf maps a key to its shard index: the cluster-wide placement hash,
// wire.ShardOf.
func ShardOf(key uint64, shards int) int { return wire.ShardOf(key, shards) }

// Server is a votmd instance.
type Server struct {
	cfg    Config
	rt     *votm.Runtime
	shards []*shardGroup
	start  time.Time

	nextViewID  atomic.Int64 // view IDs for split-born sub-shards
	monitorStop chan struct{}
	monitorWG   sync.WaitGroup

	// xidBase makes cross-shard round IDs unique across process
	// incarnations: decided prepares stay behind in the logs, and recovery
	// must never pair a stale prepare with a fresh decision. By the time new
	// xids are issued, every prior incarnation's prepare has been resolved
	// in-log (resolveCrossShard runs before the workers start), so the
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

	workersWG sync.WaitGroup
	connWG    sync.WaitGroup

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds a server: one runtime, Shards views (IDs 1..Shards, adaptive
// RAC quota each) and their worker pools. The server is not yet listening;
// call Serve or ListenAndServe.
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
	s.nextViewID.Store(int64(cfg.Shards)) // IDs 1..Shards are the seed views
	s.xidBase = uint64(time.Now().UnixNano()) << 20
	durable := cfg.Durability != DurabilityOff
	var recoveryTh *votm.Thread
	cr := &crossRecovery{horizon: make([]uint64, cfg.Shards)}
	if durable {
		recoveryTh = s.rt.RegisterThread()
		defer recoveryTh.Release()
	}
	var seeds []*shard
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
			// Recover before any worker or connection exists: applyRecords
			// takes snapshot entries and replayed records WAL-free.
			rst, err := s.initShardDurability(sh, recoveryTh, cr)
			if err != nil {
				return nil, err
			}
			s.recovery = append(s.recovery, rst)
		}
		g := &shardGroup{id: i}
		subs := []*shard{sh}
		g.subs.Store(&subs)
		s.shards = append(s.shards, g)
		seeds = append(seeds, sh)
	}
	if durable {
		// A round left undecided by a crash needs every log's horizon (it is
		// committed iff all its participants' prepares are durable), so
		// resolution runs only after all shards replayed — and before any
		// worker can append new groups.
		if err := s.resolveCrossShard(recoveryTh, cr); err != nil {
			return nil, err
		}
	}
	s.batchFree = make(chan *multiBatch, cfg.QueueDepth)
	s.rounds = newRoundCoordinator(s)
	go s.rounds.loop()
	for _, sh := range seeds {
		if sh.log != nil {
			sh.ack = newAckStage(s, sh) // before the workers: they read it unsynchronized
		}
		for w := 0; w < cfg.WorkersPerShard; w++ {
			s.workersWG.Add(1)
			go s.worker(sh)
		}
	}
	if durable {
		s.snapshotStop = make(chan struct{})
		s.snapshotWG.Add(1)
		go s.snapshotLoop()
	}
	if cfg.AutoSplit {
		s.monitorStop = make(chan struct{})
		s.monitorWG.Add(1)
		go s.monitor()
	}
	if m := cfg.Cluster; m != nil {
		handles := make([]*Shard, len(seeds))
		for i, sh := range seeds {
			handles[i] = &Shard{s: s, sh: sh}
		}
		if err := m.Start(handles); err != nil {
			_ = s.Shutdown(context.Background())
			return nil, err
		}
	}
	return s, nil
}

// newShard builds one serving sub-shard with its dispatch ring (New's seed
// shards and split-born children alike).
func (s *Server) newShard(id int, v *votm.View, idx *ds.SkipList) *shard {
	sh := &shard{id: id, view: v, idx: idx, queue: newRingQueue(s.cfg.QueueDepth)}
	sh.redo.sh = sh
	return sh
}

// appendSubShards appends a snapshot of every serving sub-shard, across all
// groups, to dst.
func (s *Server) appendSubShards(dst []*shard) []*shard {
	for _, g := range s.shards {
		dst = append(dst, *g.subs.Load()...)
	}
	return dst
}

// subShardCount is len(appendSubShards(nil)). Sub-shard lists are append-only
// (a failed split tears its child down before publication), so an unchanged
// count means an unchanged set.
func (s *Server) subShardCount() int {
	n := 0
	for _, g := range s.shards {
		n += len(*g.subs.Load())
	}
	return n
}

// leastSubShard is the first sub-shard in canonical order (shardCompare):
// shard 0's seed, whose view ID every split-born child's exceeds. Server-wide
// SCAN meters are kept there.
func (s *Server) leastSubShard() *shard { return (*s.shards[0].subs.Load())[0] }

// Repartitions returns the total number of executed shard splits.
func (s *Server) Repartitions() uint64 {
	var n uint64
	for _, g := range s.shards {
		n += g.splits.Load()
	}
	return n
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

// ListenAndServe listens on cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
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
// requests, finish and answer every dispatched transaction, stop the shard
// workers, then destroy the views (closing their RAC controllers) and wait
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

	// Stop the split monitor first: once it has exited, the sub-shard sets
	// are frozen and can be safely enumerated below. The periodic snapshot
	// loop stops too; the drain writes its own final snapshots.
	if s.monitorStop != nil {
		close(s.monitorStop)
		s.monitorWG.Wait()
	}
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
	// Unblock readers parked in a frame read; they observe draining and
	// stop reading (no request is lost: anything fully read before this
	// deadline was either dispatched — and will be answered — or rejected
	// with a typed status). A reader re-arms its idle deadline before it
	// checks draining, so none can re-arm after this wake-up unseen.
	for nc := range s.conns {
		_ = nc.SetReadDeadline(time.Now())
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
	// completion list and settles every round in flight: a listed op and a
	// round's task hold their connection's count — then retire the workers.
	s.reqWG.Wait()
	for _, sh := range s.appendSubShards(nil) {
		sh.queue.Close()
	}
	s.workersWG.Wait()
	// The round queue's senders are the connection readers, and reqWG drained
	// above: every reader exited and every task it queued is answered, so no
	// send can race the close. Retire the coordinator, then the flushers —
	// nothing lists anymore, and a flusher that settled the last round has
	// returned from it once it exits.
	s.rounds.stop()
	for _, sh := range s.appendSubShards(nil) {
		sh.ack.stop()
	}

	// Nothing appends anymore: retire the replication senders.
	if m := s.cfg.Cluster; m != nil {
		m.StopSenders()
	}

	// Workers are quiescent and every answered write is on disk: write the
	// final snapshots and mark the logs cleanly closed so the next startup
	// skips tail replay (snapshot-on-clean-drain).
	if s.cfg.Durability != DurabilityOff {
		th := s.rt.RegisterThread()
		for _, sh := range s.appendSubShards(nil) {
			s.closeShardDurability(sh, th)
		}
		th.Release()
	}

	// Close the RAC controllers (and reject any straggling admission).
	for _, sh := range s.appendSubShards(nil) {
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

// worker is one shard transaction worker: it owns a runtime thread handle
// and a retained groupWorker, blocks for one task, then drains up to BatchMax
// without blocking and executes the whole group as one transaction
// (group.go). It never waits on a flush: a durable group's answers are the
// acknowledgement stage's. At drain the closed queue first yields its
// buffered remainder — grouped like any other batch, every request answered —
// and then ends the loop.
func (s *Server) worker(sh *shard) {
	defer s.workersWG.Done()
	th := s.rt.RegisterThread()
	defer th.Release()
	w := newGroupWorker(s, sh, th)
	defer w.close()
	batch := make([]task, 0, s.cfg.BatchMax)
	for {
		t, ok := sh.queue.Pop()
		if !ok {
			return
		}
		batch = sh.queue.PopBatch(append(batch[:0], t), s.cfg.BatchMax)
		w.run(batch)
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
func (s *Server) statsResponse(shard uint32, resp *wire.Response) {
	var sel []*shardGroup
	switch {
	case shard == wire.AllShards:
		sel = s.shards
	case int(shard) < len(s.shards):
		sel = s.shards[shard : shard+1]
	default:
		resp.Status = wire.StatusBadRequest
		resp.SetDetail(fmt.Sprintf("shard %d out of range", shard))
		return
	}
	for _, g := range sel {
		// One entry per serving sub-shard; a never-split shard reports
		// exactly one, so the pre-split response shape is unchanged.
		for _, sh := range *g.subs.Load() {
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
				Shard:          uint32(g.id),
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
				Repartitions:   g.splits.Load(),
				Groups:         uint64(snap.Totals.Groups),
				GroupOps:       uint64(snap.Totals.GroupOps),
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
		}
		if m := s.cfg.Cluster; m != nil {
			m.Stats(g.id, &resp.Stats[len(resp.Stats)-1])
		}
	}
}
