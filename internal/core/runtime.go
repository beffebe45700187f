package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"votm/internal/trace"
)

// ErrViewExists is returned by CreateView for a duplicate view ID.
var ErrViewExists = errors.New("core: view already exists")

// ErrNoView is returned when a view ID is unknown.
var ErrNoView = errors.New("core: no such view")

// Runtime owns a set of views and hands out thread handles. One Runtime
// corresponds to one VOTM process in the paper.
type Runtime struct {
	cfg     Config
	mu      sync.Mutex
	views   map[int]*View
	threads atomic.Int64
	log     *trace.Log
}

// NewRuntime creates a runtime. It panics on an invalid config (programming
// error, matching the create-time contract of the C API).
func NewRuntime(cfg Config) *Runtime {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Runtime{cfg: cfg, views: make(map[int]*View), log: trace.NewLog()}
}

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Decisions returns the runtime's decision log: every quota move of its
// views.
func (r *Runtime) Decisions() *trace.Log { return r.log }

// CreateView implements create_view(vid, size, q): it creates a view of
// sizeWords words whose admission quota is quota. quota < 1 selects the
// adaptive RAC policy (paper Table I). The view uses the runtime's default
// TM algorithm; use CreateViewWithEngine for a per-view choice.
func (r *Runtime) CreateView(vid int, sizeWords int, quota int) (*View, error) {
	return r.CreateViewWithEngine(vid, sizeWords, quota, r.cfg.Engine)
}

// CreateViewWithEngine is CreateView with an explicit per-view TM
// algorithm — the "different views can have different optimal TM
// algorithms" direction the paper names as future work (§IV-C).
func (r *Runtime) CreateViewWithEngine(vid int, sizeWords int, quota int, engine EngineKind) (*View, error) {
	if sizeWords < 0 {
		return nil, fmt.Errorf("core: negative view size %d", sizeWords)
	}
	switch engine {
	case NOrec, OrecEagerRedo, TL2:
	case "":
		engine = r.cfg.Engine
	default:
		return nil, fmt.Errorf("core: unknown engine %q", engine)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.views[vid]; dup {
		return nil, fmt.Errorf("%w: %d", ErrViewExists, vid)
	}
	v := newView(r, vid, sizeWords, quota, engine)
	r.views[vid] = v
	return v, nil
}

// View returns the live view with ID vid.
func (r *Runtime) View(vid int) (*View, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.views[vid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoView, vid)
	}
	return v, nil
}

// Views returns all live views (stable order not guaranteed).
func (r *Runtime) Views() []*View {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*View, 0, len(r.views))
	for _, v := range r.views {
		out = append(out, v)
	}
	return out
}

// DestroyView implements destroy_view(vid). Destroying a view with
// transactions still inside it is a caller error; the view rejects new
// admissions, and threads blocked waiting for admission are woken and
// return ErrViewDestroyed instead of hanging (so a destroy racing a
// panicking or stalled transaction cannot wedge its neighbours).
func (r *Runtime) DestroyView(vid int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.views[vid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoView, vid)
	}
	v.destroyed.Store(true)
	v.ctl.Close()
	delete(r.views, vid)
	return nil
}

// RegisterThread creates a thread handle. Each worker goroutine must own
// exactly one handle; handles are not safe for concurrent use.
func (r *Runtime) RegisterThread() *Thread {
	id := int(r.threads.Add(1) - 1)
	return &Thread{id: id, txs: make(map[*View]txCacheEntry)}
}
