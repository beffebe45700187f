package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"votm"
	"votm/client"
	"votm/ds"
	"votm/enc"
	"votm/internal/memheap"
	"votm/internal/rac"
	"votm/internal/stm"
	"votm/internal/wal"
	"votm/wire"
)

// Layer probes: each times calls into one layer's exported functions from
// outside, single-threaded, on the workload's own frames, keys and record
// sizes, after the timed phases. They run only in a traced run and each is a
// span under the "probe" parent.

// prober times probes and files a span for each.
type prober struct {
	tr     *tracer
	parent int
}

// measure calls fn (which performs batch operations) at least 9 times and
// for at least 40 ms, and returns the median nanoseconds per operation.
func (p *prober) measure(name string, batch int, fn func()) float64 {
	sp := p.tr.begin("probe/"+name, p.parent)
	defer p.tr.end(sp)
	fn() // warm caches and lazy set-up
	var per []float64
	start := time.Now()
	for len(per) < 9 || time.Since(start) < 40*time.Millisecond {
		t := time.Now()
		fn()
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return median(per)
}

// frames is a sample of the workload's traffic: encoded request payloads,
// and the response payloads the live server answered them with.
type frames struct {
	reqs  []wire.Request // own their Value/Subs memory
	reqP  [][]byte       // request payloads (length prefix stripped)
	respP [][]byte
}

// captureFrames draws n requests from the workload's mix on a scratch
// generator (so the audit state of the real connections is untouched; the
// scratch connection replays versions the server already holds or newer
// ones, and runs after the sweep) and records both directions.
func captureFrames(in *kvInstance, seed int64, n int) (*frames, error) {
	units, nSingle, nSame := in.spec.units(0)
	g := newGen(0, seed+1, units, 0)
	g.nSingle, g.nSame = nSingle, nSame
	// Continue above every version the real connection 0 wrote, so the
	// server-side state stays well-formed for anything that reads it later.
	copy(g.sent, in.gens[0].sent)
	if err := g.connect(in.addr); err != nil {
		return nil, err
	}
	defer g.close()
	f := &frames{}
	g.p = &phase{mix: in.spec.mix}
	for i := 0; i < n; i++ {
		s := &g.slots[0]
		g.seq = uint32(i)
		in.spec.mix.next(g, s)
		g.req.ID = 0
		b, err := wire.AppendRequest(nil, &g.req)
		if err != nil {
			return nil, err
		}
		if s.op = g.req.Op; s.op == wire.OpPut || s.op == wire.OpAtomic {
			g.inflight[s.unit]--
		}
		// Re-parse to get a request that owns its memory.
		req, err := wire.ParseRequest(b[4:])
		if err != nil {
			return nil, err
		}
		f.reqs = append(f.reqs, *req)
		f.reqP = append(f.reqP, b[4:])
		if _, err := g.nc.Write(b); err != nil {
			return nil, err
		}
		resp, err := wire.ReadResponse(g.br)
		if err != nil {
			return nil, err
		}
		if resp.Status != wire.StatusOK {
			return nil, fmt.Errorf("frame capture: %v answered %v", req.Op, resp.Status)
		}
		rb, err := wire.AppendResponse(nil, resp)
		if err != nil {
			return nil, err
		}
		f.respP = append(f.respP, rb[4:])
	}
	return f, nil
}

// probeWire times the four codec functions over the captured traffic.
func (p *prober) probeWire(rep *report, f *frames) error {
	n := len(f.reqs)
	buf := make([]byte, 0, 1<<20)
	var err error
	rep.set("wire.encode_req_ns", p.measure("wire/AppendRequest", n, func() {
		buf = buf[:0]
		for i := range f.reqs {
			if buf, err = wire.AppendRequest(buf, &f.reqs[i]); err != nil {
				return
			}
		}
	}))
	var req wire.Request
	rep.set("wire.decode_req_ns", p.measure("wire/ParseRequestReuse", n, func() {
		for _, b := range f.reqP {
			if e := wire.ParseRequestReuse(&req, b); e != nil {
				err = e
			}
		}
	}))
	var resp wire.Response
	rep.set("wire.decode_resp_ns", p.measure("wire/ParseResponseReuse", n, func() {
		for _, b := range f.respP {
			if e := wire.ParseResponseReuse(&resp, b); e != nil {
				err = e
			}
		}
	}))
	resps := make([]*wire.Response, n)
	for i, b := range f.respP {
		if resps[i], err = wire.ParseResponse(b); err != nil {
			return err
		}
	}
	rep.set("wire.encode_resp_ns", p.measure("wire/AppendResponse", n, func() {
		buf = buf[:0]
		for _, r := range resps {
			if buf, err = wire.AppendResponse(buf, r); err != nil {
				return
			}
		}
	}))
	return err
}

// probeSyncRTT measures the unloaded round trip through package client: one
// request in flight, a GET then a PUT of the value just read (so the
// server's state does not change).
func (p *prober) probeSyncRTT(rep *report, addr string, seed int64) error {
	sp := p.tr.begin("probe/client/Get+Put", p.parent)
	defer p.tr.end(sp)
	c, err := client.Dial(addr, client.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	defer c.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	var rtts []float64
	for i := 0; i < 1000; i++ {
		k := uint64(rng.Intn(numKeys))
		t := time.Now()
		v, err := c.Get(ctx, k)
		if err != nil {
			return fmt.Errorf("sync GET %d: %w", k, err)
		}
		mid := time.Now()
		if _, err := c.Put(ctx, k, v); err != nil {
			return fmt.Errorf("sync PUT %d: %w", k, err)
		}
		if i >= 100 { // the first round trips dial and warm the path
			rtts = append(rtts, float64(mid.Sub(t)), float64(time.Since(mid)))
		}
	}
	rep.set("client.sync_rtt_p50_us", median(rtts)/1e3)
	return nil
}

// probeRAC times an uncontended Enter/Exit pair at the workload's thread
// count.
func (p *prober) probeRAC(rep *report, threads int) error {
	ctl := rac.New(rac.Params{Threads: threads, InitialQuota: threads})
	defer ctl.Close()
	ctx := context.Background()
	var err error
	const batch = 4096
	rep.set("rac.enter_exit_ns", p.measure("rac/Enter+Exit", batch, func() {
		for i := 0; i < batch; i++ {
			mode, e := ctl.Enter(ctx)
			if e != nil {
				err = e
				return
			}
			ctl.Exit(mode, rac.Committed, 0)
		}
	}))
	return err
}

// probeView times an empty Atomic on a view pinned to TM mode (Q = 2) and
// on one pinned to lock mode (Q = 1): RAC admission plus begin/commit.
func (p *prober) probeView(rep *report) error {
	rt := votm.New(votm.Config{Threads: 2})
	th := rt.RegisterThread()
	defer th.Release()
	ctx := context.Background()
	empty := func(votm.Tx) error { return nil }
	const batch = 4096
	for _, c := range []struct {
		q    int
		name string
	}{{2, "view.atomic_empty_ns_tm"}, {1, "view.atomic_empty_ns_lock"}} {
		q, name := c.q, c.name
		v, err := rt.CreateView(q, 64, q)
		if err != nil {
			return err
		}
		rep.set(name, p.measure(fmt.Sprintf("view/Atomic(Q=%d)", q), batch, func() {
			for i := 0; i < batch; i++ {
				if e := v.Atomic(ctx, th, empty); e != nil {
					err = e
				}
			}
		}))
		if err != nil {
			return err
		}
		if err := rt.DestroyView(q); err != nil {
			return err
		}
	}
	return nil
}

// probeIndex times the shard index (ds.SkipList) holding one shard's share
// of the key space, inside view transactions at the workload's quota (Q = 1
// runs uninstrumented in lock mode, Q = 2 through the STM engine). 256
// index calls share one transaction, as a group commit shares one.
func (p *prober) probeIndex(rep *report, workers int, seed int64) error {
	rt := votm.New(votm.Config{Threads: workers})
	v, err := rt.CreateView(1, 1<<15, workers)
	if err != nil {
		return err
	}
	sl, err := ds.NewSkipList(v, 0)
	if err != nil {
		return err
	}
	th := rt.RegisterThread()
	defer th.Release()
	ctx := context.Background()
	var keys []uint64
	for k := uint64(0); k < numKeys; k += kvShards {
		keys = append(keys, k)
	}
	for _, k := range keys {
		node, err := sl.NewNode(k)
		if err != nil {
			return err
		}
		if err := v.Atomic(ctx, th, func(tx votm.Tx) error { sl.Put(tx, k, k, node); return nil }); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const batch = 256
	var sink uint64
	atomic := func(fn func(tx votm.Tx)) {
		if e := v.Atomic(ctx, th, func(tx votm.Tx) error { fn(tx); return nil }); e != nil {
			err = e
		}
	}
	rep.set("index.get_ns", p.measure("index/Get", batch, func() {
		atomic(func(tx votm.Tx) {
			for i := 0; i < batch; i++ {
				val, _ := sl.Get(tx, keys[rng.Intn(len(keys))])
				sink += val
			}
		})
	}))
	rep.set("index.put_ns", p.measure("index/Swap", batch, func() {
		atomic(func(tx votm.Tx) {
			for i := 0; i < batch; i++ {
				k := keys[rng.Intn(len(keys))]
				sl.Swap(tx, k, k, ds.NilRef) // every key exists: no spare node is linked
			}
		})
	}))
	rep.set("index.scan_ns_per_entry", p.measure("index/Seek+Next", batch, func() {
		atomic(func(tx votm.Tx) {
			n := sl.Seek(tx, keys[rng.Intn(len(keys))])
			for i := 0; i < batch; i++ {
				if n == ds.NilRef {
					n = sl.First(tx)
				}
				sink += sl.NodeKey(tx, n) + sl.NodeVal(tx, n)
				n = sl.Next(tx, n)
			}
		})
	}))
	_ = sink
	return err
}

// probeMemheap times one allocation and one free of a value block, sixteen
// to a lock round trip, as the group-commit path batches them.
func (p *prober) probeMemheap(rep *report) error {
	a := memheap.New(1 << 15)
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = enc.BlobWords(valueLen)
	}
	var addrs []stm.Addr
	var err error
	rep.set("memheap.alloc_free_ns", p.measure("memheap/AllocBatch+FreeBatch", len(sizes), func() {
		if addrs, err = a.AllocBatch(sizes, addrs[:0]); err != nil {
			return
		}
		err = a.FreeBatch(addrs)
	}))
	return err
}

// probeWAL times Append (per record, sixteen 64-byte records to a batch)
// and Append + Sync with no fault hook, on the data directory's filesystem;
// and, for information, the same Sync on the checkout's own disk.
func (p *prober) probeWAL(rep *report, root string) error {
	appendSync := func(dir, what string) (appendNs, syncUs float64, err error) {
		dir, err = os.MkdirTemp(dir, "probe-wal-")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		log, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return 0, 0, err
		}
		defer log.Close()
		if err := log.Start(1); err != nil {
			return 0, 0, err
		}
		val := make([]byte, valueLen)
		recs := make([]wal.Record, 16)
		for i := range recs {
			recs[i] = wal.Record{Kind: wal.RecPut, Key: uint64(i), Value: val}
		}
		var seq uint64
		appendNs = p.measure("wal/Append"+what, len(recs), func() {
			for i := 0; i < 64; i++ {
				if seq, _, err = log.Append(recs); err != nil {
					return
				}
			}
		}) / 64
		if err != nil {
			return 0, 0, err
		}
		syncUs = p.measure("wal/Append+Sync"+what, 1, func() {
			if seq, _, err = log.Append(recs); err == nil {
				err = log.Sync(seq)
			}
		}) / 1e3
		return appendNs, syncUs, err
	}
	a, s, err := appendSync(root, "")
	if err != nil {
		return err
	}
	rep.set("wal.append_ns_per_rec", a)
	rep.set("wal.sync_us", s)
	disk := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(disk, 0o755); err != nil {
		return err
	}
	if _, s, err = appendSync(disk, "(checkout disk)"); err != nil {
		return err
	}
	rep.set("wal.real_fsync_us", s)
	return nil
}
