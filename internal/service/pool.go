package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/insitu"
)

// ErrPoolClosed is returned by Render once the pool has shut down.
var ErrPoolClosed = fmt.Errorf("service: render pool closed")

// RenderPool renders frames from immutable field snapshots on its own
// bounded worker set, completely outside every solver loop. Frame
// latency therefore depends on pool depth and render cost, not on step
// cost, and a slow or stalled consumer never blocks a solver: the pool
// only ever reads snapshots the solver has already published.
type RenderPool struct {
	metrics *Metrics
	tasks   chan renderTask

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

type renderTask struct {
	snap     *core.Snapshot
	req      insitu.Request
	res      chan renderResult
	enqueued time.Time
}

type renderResult struct {
	frame
	err error
}

// NewRenderPool starts workers goroutines over a task queue of
// capacity queueCap. Zero values fall back to 2 workers / 16 slots.
func NewRenderPool(workers, queueCap int, metrics *Metrics) *RenderPool {
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 16
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	p := &RenderPool{
		metrics: metrics,
		tasks:   make(chan renderTask, queueCap),
		done:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Render submits a snapshot render and blocks for the encoded PNG.
// Callers are expected to sit behind the frame lru's single flight,
// so one call here is one real render.
func (p *RenderPool) Render(snap *core.Snapshot, req insitu.Request) ([]byte, int, int, error) {
	t := renderTask{snap: snap, req: req, res: make(chan renderResult, 1), enqueued: time.Now()}
	p.metrics.RenderQueueDepth.Add(1)
	select {
	case p.tasks <- t:
	case <-p.done:
		p.metrics.RenderQueueDepth.Add(-1)
		return nil, 0, 0, ErrPoolClosed
	}
	select {
	case r := <-t.res:
		return r.png, r.w, r.h, r.err
	case <-p.done:
		return nil, 0, 0, ErrPoolClosed
	}
}

func (p *RenderPool) worker() {
	defer p.wg.Done()
	var bufs insitu.FrameBuffers // this worker's image, scalar table and PNG state
	for {
		select {
		case <-p.done:
			return
		case t := <-p.tasks:
			r := p.render(t, &bufs)
			p.metrics.RenderQueueDepth.Add(-1)
			if r.err == nil {
				p.metrics.RenderLatency.Observe(time.Since(t.enqueued).Nanoseconds())
			}
			t.res <- r // buffered; never blocks the worker
		}
	}
}

// render runs one task under a recover wrapper: a panicking renderer
// (degenerate view, snapshot-shape bug) fails that one frame request
// with an error instead of killing the worker — and with it, every
// future frame of every job. A volume frame is cast on up to GOMAXPROCS
// goroutines; guard.ForChunks brings a panic on any of them back to
// this one, so the wrapper sees it.
func (p *RenderPool) render(t renderTask, bufs *insitu.FrameBuffers) (res renderResult) {
	err := guard.Capture("render", func() (err error) {
		res.png, res.w, res.h, err = bufs.FramePNG(t.snap.Field, t.req)
		return err
	})
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			err = fmt.Errorf("%w: render panicked: %v", ErrInternal, pe.Value)
		}
		return renderResult{err: err}
	}
	return res
}

// Close stops the workers; queued tasks are abandoned and their
// waiters unblocked with ErrPoolClosed.
func (p *RenderPool) Close() {
	p.closeOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}
