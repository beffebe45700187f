package intruder

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"votm/enc"
	"votm/internal/core"
	"votm/internal/progress"
	"votm/internal/simpar"
	"votm/internal/stm"
	"votm/internal/stmds"
)

// Result of one Intruder run: the shared statistics plus the workload's
// own counters.
type Result struct {
	progress.Result

	FlowsCompleted int64
	AttacksFound   int64
	// AllocErrors counts fragment-processing steps dropped because the
	// dictionary view ran out of memory (a footprint-sizing bug).
	AllocErrors int64
	// ChecksumErrors counts flows whose reassembled payload did not match
	// the generator's checksum — any non-zero value is a TM correctness
	// bug surfaced by the workload.
	ChecksumErrors int64
}

// flow descriptor block layout inside the dictionary view:
// [arrivedBytes, totalLen, payloadWord0 …]
const flowHdrWords = 2

func payloadWords(flowLen int) int { return (flowLen + 7) / 8 }

// Run executes the Intruder benchmark over a pre-generated workload in
// cfg.Mode (progress.Run): object 1 is the capture queue, object 2 the
// reassembly dictionary. The deadline defaults to 120s.
func Run(cfg progress.RunConfig, p Params, w *Workload) (Result, error) {
	p.fill()
	if w == nil || len(w.Fragments) == 0 {
		return Result{}, errors.New("intruder: empty workload")
	}
	cfg.Deadline = cmp.Or(cfg.Deadline, 120*time.Second)
	st := &sharedState{w: w, yield: simpar.Enabled(cfg.Yield, p.Threads)}
	sizes := [2]int{3 + len(w.Fragments) + 16, dictFootprint(w, p)}
	res, err := progress.Run(cfg, p.Threads, sizes, func(rt *core.Runtime, views []*core.View) (progress.Worker, error) {
		if err := st.setup(rt, views[0], views[len(views)-1], p); err != nil {
			return nil, err
		}
		return st.worker, nil
	})
	return Result{
		Result:         res,
		FlowsCompleted: st.flowsDone.Load(),
		AttacksFound:   st.attacks.Load(),
		AllocErrors:    st.allocErrs.Load(),
		ChecksumErrors: st.sumErrs.Load(),
	}, err
}

// setup builds the queue and dictionary and pre-fills the capture queue
// with the shuffled arrival stream (sequential, before timing starts).
func (s *sharedState) setup(rt *core.Runtime, qView, dView *core.View, p Params) error {
	var err error
	s.qView, s.dView = qView, dView
	if s.queue, err = stmds.NewQueue(qView, len(s.w.Fragments)); err != nil {
		return fmt.Errorf("intruder: queue: %w", err)
	}
	if s.dict, err = stmds.NewHashMap(dView, p.NumFlows/4+1); err != nil {
		return fmt.Errorf("intruder: dict: %w", err)
	}
	th := rt.RegisterThread()
	const batch = 512
	for lo := 0; lo < len(s.w.Fragments); lo += batch {
		hi := min(lo+batch, len(s.w.Fragments))
		err := qView.Atomic(context.Background(), th, func(tx core.Tx) error {
			for i := lo; i < hi; i++ {
				if !s.queue.Enqueue(tx, uint64(i)) {
					return errors.New("intruder: queue overflow during setup")
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// dictFootprint sizes the dictionary view: hash header + per-flow node and
// descriptor block, plus per-thread slack for transiently double-allocated
// spares (two workers racing on the same fresh flow).
func dictFootprint(w *Workload, p Params) int {
	words := 1 + w.NumFlows/4 + 1 // hash header
	for _, f := range w.Fragments {
		if f.Offset == 0 {
			words += 3 + flowHdrWords + payloadWords(f.FlowLen) // node + block
		}
	}
	slack := p.Threads * (3 + flowHdrWords + payloadWords(p.MaxFlowLen))
	return words + slack + 64
}

type sharedState struct {
	w     *Workload
	qView *core.View
	dView *core.View
	queue *stmds.Queue
	dict  *stmds.HashMap
	yield bool

	flowsDone atomic.Int64
	attacks   atomic.Int64
	sumErrs   atomic.Int64
	allocErrs atomic.Int64
}

// allocOrGrow allocates words from the dictionary view, growing the view
// with brk_view once when first-fit fragmentation leaves no suitable span.
func (s *sharedState) allocOrGrow(words int) (stm.Addr, error) {
	a, err := s.dView.Alloc(words)
	if err == nil {
		return a, nil
	}
	grow := words
	if grow < 4096 {
		grow = 4096
	}
	if berr := s.dView.Brk(grow); berr != nil {
		return 0, berr
	}
	return s.dView.Alloc(words)
}

// worker is one detector thread: capture → reassemble → detect, looping
// until the capture queue drains.
func (s *sharedState) worker(ctx context.Context, th *core.Thread, _ int) {
	for {
		if ctx.Err() != nil {
			return
		}
		// Phase 1: capture (queue-view transaction).
		var fragIdx uint64
		var ok bool
		err := s.qView.Atomic(ctx, th, func(tx core.Tx) error {
			fragIdx, ok = s.queue.Dequeue(tx)
			return nil
		})
		if err != nil {
			return
		}
		if !ok {
			return // stream drained; any in-flight reassembly belongs to other workers
		}
		frag := &s.w.Fragments[fragIdx]

		// Phase 2: reassembly (dictionary-view transaction). Blocks are
		// allocated outside the transaction and freed when unused, keeping
		// the retried body side-effect free.
		blockWords := flowHdrWords + payloadWords(frag.FlowLen)
		spareBlock, aerr := s.allocOrGrow(blockWords)
		if aerr != nil {
			s.allocErrs.Add(1)
			return
		}
		spareNode, nerr := s.dict.NewNode()
		if nerr != nil {
			// Grow and retry once (brk_view, paper Table I).
			if s.dView.Brk(4096) == nil {
				spareNode, nerr = s.dict.NewNode()
			}
			if nerr != nil {
				_ = s.dView.Free(spareBlock)
				s.allocErrs.Add(1)
				return
			}
		}

		var complete bool
		var blockRef uint64
		var usedSpares bool
		deletedNode := stmds.NilRef
		err = s.dView.Atomic(ctx, th, func(tx core.Tx) error {
			complete, usedSpares, deletedNode = false, false, stmds.NilRef
			ref, found := s.dict.Get(tx, frag.FlowID)
			if !found {
				ref = uint64(spareBlock)
				tx.Store(spareBlock+0, 0)                    // arrivedBytes
				tx.Store(spareBlock+1, uint64(frag.FlowLen)) // totalLen
				s.dict.Put(tx, frag.FlowID, ref, spareNode)  // fresh key: consumes spare
				usedSpares = true
			}
			blockRef = ref
			base := stm.Addr(ref)
			s.writeBytes(tx, base+flowHdrWords, frag.Offset, frag.Data)
			arrived := tx.Load(base+0) + uint64(len(frag.Data))
			tx.Store(base+0, arrived)
			if arrived == tx.Load(base+1) {
				complete = true
				if node, found := s.dict.Delete(tx, frag.FlowID); found {
					deletedNode = node
				}
			}
			return nil
		})
		if err != nil {
			_ = s.dView.Free(spareBlock)
			_ = s.dict.FreeNode(spareNode)
			return
		}
		if !usedSpares {
			_ = s.dView.Free(spareBlock)
			_ = s.dict.FreeNode(spareNode)
		}

		// Phase 3: detection (outside transactions). After completion the
		// flow was removed from the dictionary inside the committed
		// transaction, so the block is private to this worker.
		if complete {
			if deletedNode != stmds.NilRef {
				_ = s.dict.FreeNode(deletedNode)
			}
			payload := s.readPayload(stm.Addr(blockRef), frag.FlowLen)
			if Detect(payload) {
				s.attacks.Add(1)
			}
			if checksum(payload) != s.w.FlowSums[frag.FlowID] {
				s.sumErrs.Add(1)
			}
			_ = s.dView.Free(stm.Addr(blockRef))
			s.flowsDone.Add(1)
		}
	}
}

// writeBytes stores data at byte offset off within the payload area
// starting at base, in word-sized chunks through the enc packing helpers,
// yielding between chunks when simulated parallelism is on.
func (s *sharedState) writeBytes(tx core.Tx, base stm.Addr, off int, data []byte) {
	const chunk = 8
	for i := 0; i < len(data); i += chunk {
		end := i + chunk
		if end > len(data) {
			end = len(data)
		}
		enc.StoreBytes(tx, base, off+i, data[i:end])
		if s.yield {
			runtime.Gosched()
		}
	}
}

// readPayload unpacks flowLen bytes from the committed block (direct heap
// reads; the block is private once the flow left the dictionary).
func (s *sharedState) readPayload(blockBase stm.Addr, flowLen int) []byte {
	h := s.dView.Heap()
	out := make([]byte, flowLen)
	for i := 0; i < flowLen; i++ {
		word := h.Load(blockBase + flowHdrWords + stm.Addr(i/8))
		out[i] = byte(word >> (uint(i%8) * 8))
	}
	return out
}
