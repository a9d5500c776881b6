package guard

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Frames tracks the frames in flight made from one solver's output, so
// that solver can step aside for them (Yield) while every other solver
// in the process keeps stepping. Each frame takes the next ticket when
// it starts; open holds the tickets of those not yet ended. The zero
// value is ready to use.
type Frames struct {
	inFlight atomic.Int32 // len(open), for Yield's one-load fast path
	mu       sync.Mutex
	next     uint64
	open     []uint64
	ended    chan struct{} // closed when a frame ends, made by a waiting Yield
}

// Run runs fn as a frame: work a user is waiting to see, such as the
// cast and the PNG encode of an in situ image. The solver that calls
// Yield on f between steps lets the frames in flight finish before it
// steps again, so the frame gets every core instead of being
// time-sliced against it. fn must not wait for that solver to step
// (for a snapshot, say): a solver yielding to it would wait forever.
// The frame ends when fn returns or panics.
func (f *Frames) Run(fn func() error) error {
	f.mu.Lock()
	t := f.next
	f.next++
	f.open = append(f.open, t)
	f.inFlight.Add(1)
	f.mu.Unlock()
	defer f.end(t)
	return fn()
}

// end takes ticket t off the open frames and wakes a waiting Yield.
func (f *Frames) end(t uint64) {
	f.mu.Lock()
	i := slices.Index(f.open, t)
	f.open[i] = f.open[len(f.open)-1] // open is a set: order does not matter
	f.open = f.open[:len(f.open)-1]
	f.inFlight.Add(-1)
	if f.ended != nil {
		close(f.ended)
		f.ended = nil
	}
	f.mu.Unlock()
}

// Yield waits until every frame of f in flight when it was called has
// ended, and returns how long it waited. Frames that start during the
// wait do not extend it, so a solver calling Yield before each step
// still steps at least once per frame. With no frame in flight it is
// one atomic load: it returns 0 at once and allocates nothing.
func (f *Frames) Yield() time.Duration {
	if f.inFlight.Load() == 0 {
		return 0
	}
	f.mu.Lock()
	last := f.next // frames with a ticket below this were in flight
	var start time.Time
	for f.openBefore(last) {
		if start.IsZero() {
			start = time.Now()
		}
		if f.ended == nil {
			f.ended = make(chan struct{})
		}
		ended := f.ended
		f.mu.Unlock()
		<-ended
		f.mu.Lock()
	}
	f.mu.Unlock()
	if start.IsZero() {
		return 0
	}
	return max(time.Since(start), 1)
}

// openBefore reports whether a frame with a ticket below last is still
// open. The caller holds f.mu.
func (f *Frames) openBefore(last uint64) bool {
	for _, t := range f.open {
		if t < last {
			return true
		}
	}
	return false
}
