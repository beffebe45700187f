package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"votm/wire"
)

// Cell shape shared by the three wire workloads (bench/README.md gives the
// measurements behind each choice).
const (
	numKeys     = 4096 // key space: fits L2 on purpose
	valueLen    = 64
	numConns    = 2   // generator connections, one goroutine each
	window      = 128 // requests in flight per connection
	refill      = 32  // a write syscall carries at least this many frames
	sampleEvery = 8   // latency is sampled on every 8th request, on average
	scanLimit   = 32  // entries per SCAN page (bench/README.md: why not 128)
	scanEvery   = 16  // kv-scan-writers: every 16th request is a SCAN page
	unitsPerGen = numKeys / numConns
)

// fillValue writes the 64-byte value of (key, version): the first word
// packs both, the rest is a multiplicative chain of it, so any torn or
// misplaced value fails parseValue.
func fillValue(dst []byte, key uint64, ver uint32) {
	x := key<<32 | uint64(ver)
	for i := 0; i < valueLen; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], x)
		x = x*0x9E3779B97F4A7C15 + 1
	}
}

func parseValue(v []byte) (key uint64, ver uint32, ok bool) {
	if len(v) != valueLen {
		return 0, 0, false
	}
	x := binary.LittleEndian.Uint64(v)
	key, ver = x>>32, uint32(x)
	for i := 8; i < valueLen; i += 8 {
		x = x*0x9E3779B97F4A7C15 + 1
		if binary.LittleEndian.Uint64(v[i:]) != x {
			return 0, 0, false
		}
	}
	return key, ver, true
}

// sampler picks every sampleEvery-th operation on average, at pseudo-random
// gaps of 1..2·sampleEvery−1: a fixed stride would alias with the mixes'
// periods (request i mod 4, every 16th request) and never sample an ATOMIC
// or a SCAN.
type sampler struct {
	state uint64
	gap   int
}

func newSampler(seed int64) sampler { return sampler{state: uint64(seed)*2654435761 + 1} }

func (s *sampler) next() bool {
	if s.gap > 0 {
		s.gap--
		return false
	}
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	s.gap = int(s.state % (2*sampleEvery - 1))
	return true
}

// unit is what one write request covers: a single key (PUT) or the three
// lanes of an ATOMIC. Every unit belongs to exactly one connection, so that
// connection knows each unit's full write history.
type unit struct {
	keys [3]uint64
	n    int
}

// slot is one in-flight request; the request ID on the wire is the slot
// index, so out-of-order responses find their state without a map.
type slot struct {
	op      wire.Op
	sampled bool
	unit    int    // written or read unit; SCAN: start key
	lane    int    // sweep: which key of the unit
	ver     uint32 // write: version written; read: version acknowledged at send
	seq     uint32
	sendNs  int64 // untraced: batch send stamp; traced: build start
	encNs   int64 // traced + sampled: encode done
	// SCAN: acknowledged version of each owned key in the page at send time.
	scanLow [scanLimit/numConns + 1]uint32
}

// mixer builds the next request of a workload into g.req and audits its
// response. check runs only on StatusOK responses and returns "" or the
// audit failure.
type mixer struct {
	next  func(g *gen, s *slot)
	check func(g *gen, s *slot, r *wire.Response) string
}

// phase bounds one generator run: count > 0 sends exactly count requests
// per connection (preload, warm-up, sweep); otherwise the run is cut into
// nWin one-second windows starting at t0.
type phase struct {
	mix    mixer
	count  uint64
	t0     time.Time
	nWin   int
	tracer *tracer // non-nil: a span per request
}

// gen drives one connection: a single goroutine that fills the window with
// one write, then reads until at least refill slots are free again. Closed
// loop by necessity — sub-millisecond sleeps take ≈1.1 ms on this box, so a
// paced open loop would measure the timer.
type gen struct {
	id    int
	nc    net.Conn
	br    *bufio.Reader
	wbuf  []byte
	big   []byte // frames larger than the read buffer
	rng   *rand.Rand
	samp  sampler
	req   wire.Request
	resp  wire.Response
	subs  [3]wire.Sub
	vals  [3][valueLen]byte
	slots [window]slot
	free  []uint16

	units    []unit
	nSingle  int      // durable workload: units[:nSingle] are single keys,
	nSame    int      // the next nSame same-shard triples, the rest cross-shard
	sent     []uint32 // last version sent per unit
	acked    []uint32 // highest version acknowledged per unit
	low      []uint32 // lowest version the unit may legally hold (see write)
	inflight []uint16 // writes in flight per unit
	laneVer  []int64  // sweep: version seen on the unit's first answered lane
	cursor   int      // preload / sweep position

	seq       uint32 // requests built in this phase
	attempted uint64
	failed    uint64
	busy      uint64
	firstFail string
	wireBytes uint64
	entries   uint64 // SCAN entries received
	ref       memRef // sampled between batches, in every phase

	p      *phase
	stop   bool
	curWin int
	winOps []uint64
	winLat []hist
	// Traced phase: a span per request, preallocated; full buffers drop.
	spans    []reqSpan
	subSpans []subSpan
	dropped  uint64
}

func newGen(id int, seed int64, units []unit, maxWin int) *gen {
	g := &gen{
		id:       id,
		rng:      rand.New(rand.NewSource(seed*1_000_003 + int64(id))),
		samp:     newSampler(seed*1_000_003 + int64(id)),
		wbuf:     make([]byte, 0, 64<<10),
		units:    units,
		sent:     make([]uint32, len(units)),
		acked:    make([]uint32, len(units)),
		low:      make([]uint32, len(units)),
		inflight: make([]uint16, len(units)),
		laneVer:  make([]int64, len(units)),
		winOps:   make([]uint64, maxWin),
		winLat:   make([]hist, maxWin),
	}
	g.resetSlots()
	return g
}

func (g *gen) resetSlots() {
	g.free = g.free[:0]
	for i := window - 1; i >= 0; i-- {
		g.free = append(g.free, uint16(i))
	}
}

func (g *gen) connect(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	g.nc = nc
	if g.br == nil {
		g.br = bufio.NewReaderSize(nc, 64<<10)
	} else {
		g.br.Reset(nc)
	}
	return nil
}

func (g *gen) close() {
	if g.nc != nil {
		_ = g.nc.Close()
		g.nc = nil
	}
}

// fail counts one failed operation and keeps the first description.
func (g *gen) fail(msg string) {
	g.failed++
	if g.firstFail == "" {
		g.firstFail = fmt.Sprintf("conn %d: %s", g.id, msg)
	}
}

// run executes one phase on this connection. A transport or framing error
// is fatal; failed operations are counted and the run goes on.
func (g *gen) run(p *phase) error {
	g.p, g.stop, g.curWin, g.seq = p, false, 0, 0
	for i := 0; i < p.nWin; i++ {
		g.winOps[i] = 0
		g.winLat[i].reset()
	}
	if p.tracer != nil {
		g.spans, g.subSpans, g.dropped = g.spans[:0], g.subSpans[:0], 0
	}
	t0 := p.t0.UnixNano()
	for {
		if !g.stop && len(g.free) >= refill {
			now := time.Now().UnixNano()
			if p.nWin > 0 && now-t0 >= int64(p.nWin)*int64(time.Second) {
				g.stop = true
			}
			for len(g.free) > 0 && !g.stop {
				if p.count > 0 && uint64(g.seq) == p.count {
					g.stop = true
					break
				}
				if err := g.build(now); err != nil {
					return err
				}
			}
			g.ref.sample(now)
			if len(g.wbuf) > 0 {
				g.wireBytes += uint64(len(g.wbuf))
				if _, err := g.nc.Write(g.wbuf); err != nil {
					return fmt.Errorf("conn %d: write: %w", g.id, err)
				}
				g.wbuf = g.wbuf[:0]
			}
		}
		if len(g.free) == window {
			return nil
		}
		if err := g.readOne(); err != nil {
			return err
		}
		for g.br.Buffered() > 0 {
			if err := g.readOne(); err != nil {
				return err
			}
		}
	}
}

func (g *gen) build(batchNow int64) error {
	id := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	s := &g.slots[id]
	s.seq = g.seq
	s.sampled = g.samp.next()
	s.sendNs = batchNow
	if g.p.tracer != nil {
		s.sendNs = g.p.tracer.now()
	}
	g.p.mix.next(g, s)
	s.op = g.req.Op
	g.req.ID = uint32(id)
	var err error
	if g.wbuf, err = wire.AppendRequest(g.wbuf, &g.req); err != nil {
		return fmt.Errorf("conn %d: encode: %w", g.id, err)
	}
	if g.p.tracer != nil && s.sampled {
		s.encNs = g.p.tracer.now()
	}
	g.seq++
	g.attempted++
	return nil
}

// readOne reads, parses and audits one response frame. The payload is
// parsed in place out of the read buffer (no copy on the generator side).
func (g *gen) readOne() error {
	hdr, err := g.br.Peek(4)
	if err != nil {
		return fmt.Errorf("conn %d: read: %w", g.id, err)
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > wire.MaxFrame || n < 7 {
		return fmt.Errorf("conn %d: bad frame length %d", g.id, n)
	}
	var payload []byte
	inPlace := 4+n <= g.br.Size()
	if inPlace {
		b, err := g.br.Peek(4 + n)
		if err != nil {
			return fmt.Errorf("conn %d: read: %w", g.id, err)
		}
		payload = b[4:]
	} else {
		if cap(g.big) < 4+n {
			g.big = make([]byte, 4+n)
		}
		if _, err := io.ReadFull(g.br, g.big[:4+n]); err != nil {
			return fmt.Errorf("conn %d: read: %w", g.id, err)
		}
		payload = g.big[4 : 4+n]
	}
	g.wireBytes += uint64(4 + n)

	id := binary.LittleEndian.Uint32(payload[2:6])
	if id >= window {
		return fmt.Errorf("conn %d: response for unknown request id %d", g.id, id)
	}
	s := &g.slots[id]
	tr := g.p.tracer
	var rdNs int64
	if tr != nil && s.sampled {
		rdNs = tr.now()
	}
	if err := wire.ParseResponseReuse(&g.resp, payload); err != nil {
		return fmt.Errorf("conn %d: parse: %w", g.id, err)
	}
	r := &g.resp
	msg := ""
	switch {
	case r.Op != s.op:
		msg = fmt.Sprintf("%v answered as %v", s.op, r.Op)
	case r.Status == wire.StatusOK:
		msg = g.p.mix.check(g, s, r)
	case r.Status == wire.StatusBusy:
		g.busy++
		msg = "BUSY"
	default:
		msg = fmt.Sprintf("%v: %v %s", s.op, r.Status, r.Value)
	}
	if s.op == wire.OpPut || s.op == wire.OpAtomic {
		g.inflight[s.unit]--
	}
	ok := msg == ""
	if !ok {
		g.fail(msg)
	}
	if inPlace {
		if _, err := g.br.Discard(4 + n); err != nil {
			return err
		}
	}

	p := g.p
	switch {
	case tr != nil:
		now := tr.now()
		g.noteTime(now-int64(p.t0.Sub(tr.epoch)), now-s.sendNs)
		if len(g.spans) == cap(g.spans) {
			g.dropped++
			break
		}
		g.spans = append(g.spans, reqSpan{seq: s.seq, name: uint8(s.op), win: int16(g.curWin),
			sampled: s.sampled, t0: s.sendNs, t1: now})
		if s.sampled {
			g.subSpans = append(g.subSpans, subSpan{enc: s.encNs, rd: rdNs})
		}
	case s.sampled && p.nWin > 0:
		now := time.Now().UnixNano()
		g.noteTime(now-p.t0.UnixNano(), now-s.sendNs)
	}
	if ok && p.nWin > 0 && g.curWin < p.nWin {
		g.winOps[g.curWin]++
	}
	g.free = append(g.free, uint16(id))
	return nil
}

// noteTime files one latency sample and moves the window cursor; sinceT0 is
// the time since the phase began.
func (g *gen) noteTime(sinceT0, lat int64) {
	if g.p.nWin == 0 {
		return
	}
	w := int(sinceT0 / int64(time.Second))
	if w >= g.p.nWin {
		g.stop = true
		g.curWin = g.p.nWin
		return
	}
	g.curWin = w
	g.winLat[w].add(lat)
}

// --- request builders shared by the mixes --------------------------------

// write builds the next version of unit u: a PUT for a one-key unit, an
// ATOMIC of three SubPuts otherwise. low[u] is the oldest version that may
// legally survive: a write can only be overtaken by writes that were sent
// while it was still in flight (two workers of one shard may commit their
// groups in either order), so low advances whenever the unit is quiet.
func (g *gen) write(s *slot, u int) {
	un := &g.units[u]
	g.sent[u]++
	ver := g.sent[u]
	if g.inflight[u] == 0 {
		g.low[u] = ver
	}
	g.inflight[u]++
	s.unit, s.ver = u, ver
	if un.n == 1 {
		fillValue(g.vals[0][:], un.keys[0], ver)
		g.req = wire.Request{Op: wire.OpPut, Key: un.keys[0], Value: g.vals[0][:]}
		return
	}
	for i := 0; i < un.n; i++ {
		fillValue(g.vals[i][:], un.keys[i], ver)
		g.subs[i] = wire.Sub{Kind: wire.SubPut, Key: un.keys[i], Value: g.vals[i][:]}
	}
	g.req = wire.Request{Op: wire.OpAtomic, Subs: g.subs[:un.n]}
}

func (g *gen) get(s *slot, u, lane int) {
	s.unit, s.lane, s.ver = u, lane, g.acked[u]
	g.req = wire.Request{Op: wire.OpGet, Key: g.units[u].keys[lane]}
}

// checkWrite audits a PUT or ATOMIC acknowledgement. Every unit is written
// first by the preload, so only version 1 may report "created".
func checkWrite(g *gen, s *slot, r *wire.Response) string {
	switch s.op {
	case wire.OpPut:
		if r.Created != (s.ver == 1) {
			return fmt.Sprintf("PUT key %d v%d: created=%v", g.units[s.unit].keys[0], s.ver, r.Created)
		}
	case wire.OpAtomic:
		if len(r.Subs) != g.units[s.unit].n {
			return fmt.Sprintf("ATOMIC unit %d: %d sub-results", s.unit, len(r.Subs))
		}
		for _, sr := range r.Subs {
			if sr.Kind != wire.SubPut || sr.Status != wire.StatusOK {
				return fmt.Sprintf("ATOMIC unit %d: sub-result %v/%v", s.unit, sr.Kind, sr.Status)
			}
		}
	}
	if s.ver > g.acked[s.unit] {
		g.acked[s.unit] = s.ver
	}
	return ""
}

// checkGet audits a GET: a well-formed value of the right key whose version
// is at least what this connection had been acknowledged when it sent the
// GET and at most what it has sent by now.
func checkGet(g *gen, s *slot, r *wire.Response) string {
	want := g.units[s.unit].keys[s.lane]
	key, ver, ok := parseValue(r.Value)
	if !ok || key != want {
		return fmt.Sprintf("GET key %d: malformed value (%d bytes, key %d)", want, len(r.Value), key)
	}
	if ver < s.ver || ver > g.sent[s.unit] {
		return fmt.Sprintf("GET key %d: version %d outside [%d, %d]", want, ver, s.ver, g.sent[s.unit])
	}
	return ""
}

func checkAny(g *gen, s *slot, r *wire.Response) string {
	switch s.op {
	case wire.OpGet:
		return checkGet(g, s, r)
	case wire.OpScan:
		return checkScan(g, s, r)
	default:
		return checkWrite(g, s, r)
	}
}

// preloadMix writes version 1 of every unit, in order.
var preloadMix = mixer{
	next: func(g *gen, s *slot) {
		g.write(s, g.cursor)
		g.cursor++
	},
	check: checkWrite,
}

// sweepMix reads every key of every unit once, in order, after the load has
// drained: each must hold a version in [low, sent] and the lanes of an
// ATOMIC unit must agree.
var sweepMix = mixer{
	next: func(g *gen, s *slot) {
		u, lane := 0, g.cursor
		for lane >= g.units[u].n {
			lane -= g.units[u].n
			u++
		}
		g.get(s, u, lane)
		s.ver = g.low[u]
		g.cursor++
	},
	check: func(g *gen, s *slot, r *wire.Response) string {
		if msg := checkGet(g, s, r); msg != "" {
			return msg
		}
		_, ver, _ := parseValue(r.Value)
		switch seen := g.laneVer[s.unit]; {
		case seen < 0:
			g.laneVer[s.unit] = int64(ver)
		case seen != int64(ver):
			return fmt.Sprintf("unit %d: lanes disagree (v%d and v%d)", s.unit, seen, ver)
		}
		return ""
	},
}

// sweepCount prepares a sweep and returns its request count.
func (g *gen) sweepCount() uint64 {
	g.cursor = 0
	n := 0
	for u := range g.units {
		g.laneVer[u] = -1
		n += g.units[u].n
	}
	return uint64(n)
}

// pointMix: 80 % GET / 20 % PUT, uniform over the connection's keys.
var pointMix = mixer{
	next: func(g *gen, s *slot) {
		u := g.rng.Intn(len(g.units))
		if g.rng.Intn(5) == 0 {
			g.write(s, u)
		} else {
			g.get(s, u, 0)
		}
	},
	check: checkAny,
}

// scanMix: every scanEvery-th request is a SCAN page from a random start to
// the end of the key space, the rest are PUTs — a fixed ratio, so one
// throughput number is meaningful.
var scanMix = mixer{
	next: func(g *gen, s *slot) {
		if g.seq%scanEvery != scanEvery-1 {
			g.write(s, g.rng.Intn(len(g.units)))
			return
		}
		start := g.rng.Intn(numKeys)
		s.unit = start
		// Keys are dense (0..numKeys-1) and key k belongs to connection
		// k % numConns at unit k / numConns.
		j := 0
		for k := start; k < start+scanLimit && k < numKeys; k++ {
			if k%numConns == g.id {
				s.scanLow[j] = g.acked[k/numConns]
				j++
			}
		}
		g.req = wire.Request{Op: wire.OpScan, Key: uint64(start), End: ^uint64(0), Limit: scanLimit}
	},
	check: checkAny,
}

// checkScan audits a SCAN page. No key is ever deleted, so the page must be
// exactly the keys start, start+1, … — which makes it ascending, in range
// and duplicate-free — each with a well-formed value; this connection's own
// keys must also carry a version between acknowledged-at-send and sent-by-now.
func checkScan(g *gen, s *slot, r *wire.Response) string {
	start := s.unit
	want := min(scanLimit, numKeys-start)
	if len(r.Entries) != want {
		return fmt.Sprintf("SCAN from %d: %d entries, want %d", start, len(r.Entries), want)
	}
	g.entries += uint64(want)
	j := 0
	for i, e := range r.Entries {
		k := start + i
		key, ver, ok := parseValue(e.Value)
		if e.Key != uint64(k) || !ok || key != e.Key {
			return fmt.Sprintf("SCAN from %d: entry %d is key %d (value key %d, well-formed %v)", start, i, e.Key, key, ok)
		}
		if k%numConns == g.id {
			if ver < s.scanLow[j] || ver > g.sent[k/numConns] {
				return fmt.Sprintf("SCAN from %d: key %d version %d outside [%d, %d]", start, k, ver, s.scanLow[j], g.sent[k/numConns])
			}
			j++
		}
	}
	more := start+scanLimit < numKeys
	if r.More != more || (more && r.Cursor != uint64(start+scanLimit)) {
		return fmt.Sprintf("SCAN from %d: more=%v cursor=%d", start, r.More, r.Cursor)
	}
	return ""
}
