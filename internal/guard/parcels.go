package guard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForChunks calls fn(0..n-1), each index once, on up to workers
// participants — the caller among them — and returns when all calls
// have. It is Parcels.Run for callers that keep nothing across passes.
func ForChunks(n, workers int, fn func(i int)) {
	var p Parcels
	p.Run(n, workers, func(_, i int) { fn(i) })
}

// Parcels runs passes of index-addressed parcels on the process's one
// set of parked helper goroutines: the solver's site parcels, a
// frame's row parcels and the voxeliser's layers all fan out here, so
// they share the cores instead of each starting goroutines of their
// own. The zero value is ready; a Parcels runs one pass at a time.
// Kept across passes together with a kept fn, a pass allocates
// nothing.
type Parcels struct {
	fn    func(slot, i int)
	n     int64
	next  atomic.Int64 // the cursor parcels are claimed from
	ran   atomic.Int64 // parcels the pass's participants have run
	slots atomic.Int32 // the slot the next joining helper takes
	wg    sync.WaitGroup
	first atomic.Pointer[panicked]
}

// panicked boxes the first panic of a pass. It is allocated only when
// a panic happened: boxing on every claim would cost every pass.
type panicked struct{ v any }

// Run calls fn(slot, i) once for every i in [0, n). The caller's
// goroutine always takes part, as slot 0; up to workers-1 idle helpers
// join it with slots 1..workers-1, so scratch indexed by slot needs
// workers entries. A helper busy with another pass is not waited for —
// the caller alone can finish — so fn must not wait on another index
// of its own pass.
//
// A panic in fn does not end the process from a goroutine nobody can
// recover on: the first one is caught where it happens, the parcels
// not yet claimed are skipped, and once every participant has returned
// that value is raised again on the caller's goroutine — where a
// Capture around the caller contains it like any other. A pass that
// ends without a panic but ran other than n parcels panics too, so a
// lost or doubled claim fails loudly instead of leaving sites unstepped.
func (p *Parcels) Run(n, workers int, fn func(slot, i int)) {
	p.fn, p.n = fn, int64(n)
	p.next.Store(0)
	p.ran.Store(0)
	p.slots.Store(1)
	if n < 2 || workers < 2 || wake(p, min(n, workers)-1) == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.work(0)
	p.wg.Wait()
	if f := p.first.Swap(nil); f != nil {
		panic(f.v)
	}
	if ran := p.ran.Load(); ran != p.n {
		panic(fmt.Sprintf("guard: pass ran %d of %d parcels", ran, p.n))
	}
}

// work claims parcels from the cursor until none are left, or until a
// participant's panic has moved the cursor to the end. It counts what
// it ran locally and adds that to the pass once, on the way out.
func (p *Parcels) work(slot int) {
	defer p.catch()
	ran := int64(0)
	for i := p.next.Add(1) - 1; i < p.n; i = p.next.Add(1) - 1 {
		p.fn(slot, int(i))
		ran++
	}
	p.ran.Add(ran)
}

// catch keeps the first panic of the pass and moves the cursor to the
// end, so no participant claims another parcel.
func (p *Parcels) catch() {
	if v := recover(); v != nil {
		p.first.CompareAndSwap(nil, &panicked{v})
		p.next.Store(p.n)
	}
}

// helpers is the process-wide set of parked goroutines: started on
// first use, GOMAXPROCS-1 strong (grown when GOMAXPROCS grows), never
// stopped.
var helpers struct {
	mu      sync.Mutex
	started int
	idle    []*helper
}

// helper is one goroutine of the set, parked on its pass channel.
type helper struct {
	pass chan *Parcels
}

// wake hands p to up to want idle helpers and returns how many took
// it.
func wake(p *Parcels, want int) int {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	for helpers.started < runtime.GOMAXPROCS(0)-1 {
		h := &helper{pass: make(chan *Parcels, 1)}
		helpers.started++
		helpers.idle = append(helpers.idle, h)
		go h.run()
	}
	k := min(want, len(helpers.idle))
	rest := len(helpers.idle) - k
	p.wg.Add(k)
	for _, h := range helpers.idle[rest:] {
		h.pass <- p // an idle helper's channel is empty: never blocks
	}
	helpers.idle = helpers.idle[:rest]
	return k
}

// run serves one pass per wake-up.
func (h *helper) run() {
	for p := range h.pass {
		h.serve(p)
	}
}

// serve works p on a fresh slot, then parks h again before telling
// the caller, so the caller's next pass can find it idle.
func (h *helper) serve(p *Parcels) {
	defer p.wg.Done()
	p.work(int(p.slots.Add(1) - 1))
	helpers.mu.Lock()
	helpers.idle = append(helpers.idle, h)
	helpers.mu.Unlock()
}
