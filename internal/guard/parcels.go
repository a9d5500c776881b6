package guard

import (
	"fmt"
	"runtime"
	"slices"
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
	// short is how many more helpers the pass may take while it sits
	// on helpers.open, guarded by helpers.mu; opened says it was put
	// there, and only the caller's goroutine touches it.
	short  int
	opened bool
}

// panicked boxes the first panic of a pass. It is allocated only when
// a panic happened: boxing on every claim would cost every pass.
type panicked struct{ v any }

// Run calls fn(slot, i) once for every i in [0, n). The caller's
// goroutine always takes part, as slot 0; up to workers-1 helpers
// join it with slots 1..workers-1, so scratch indexed by slot needs
// workers entries. Idle helpers join when the pass starts; if fewer
// were idle than it asked for, the pass stays open until its caller
// runs out of parcels, and a helper leaving any other pass joins it
// before parking — so a frame that starts while the solver's pass
// holds the helpers gets them as soon as that pass ends. A busy helper
// is never waited for — the caller alone can finish — so fn must not
// wait on another index of its own pass.
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
	if n < 2 || workers < 2 || !wake(p, min(n, workers)-1) {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.work(0)
	if p.opened {
		closePass(p)
	}
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
// stopped. open holds the passes that got fewer helpers than they
// asked for, oldest first, until their callers close them.
var helpers struct {
	mu      sync.Mutex
	started int
	idle    []*helper
	open    []*Parcels
}

// helper is one goroutine of the set, parked on its pass channel.
type helper struct {
	pass chan *Parcels
}

// wake hands p to up to want idle helpers. A pass left short of want
// goes on the open list for helpers leaving other passes to join. It
// reports false when p can have no helper at all: none idle and none
// that could join later (GOMAXPROCS 1), so the caller steps alone.
func wake(p *Parcels, want int) bool {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	for helpers.started < runtime.GOMAXPROCS(0)-1 {
		h := &helper{pass: make(chan *Parcels, 1)}
		helpers.started++
		helpers.idle = append(helpers.idle, h)
		go h.run()
	}
	if helpers.started == 0 {
		return false
	}
	k := min(want, len(helpers.idle))
	rest := len(helpers.idle) - k
	p.wg.Add(k)
	for _, h := range helpers.idle[rest:] {
		h.pass <- p // an idle helper's channel is empty: never blocks
	}
	helpers.idle = helpers.idle[:rest]
	p.short = want - k
	if p.opened = p.short > 0; p.opened {
		helpers.open = append(helpers.open, p)
	}
	return true
}

// closePass takes p off the open list once its caller has run out of
// parcels: every helper that joined did so under helpers.mu before
// this, so the caller's Wait counts it.
func closePass(p *Parcels) {
	helpers.mu.Lock()
	dropOpen(p)
	helpers.mu.Unlock()
}

// dropOpen removes p from the open list, keeping the order; the caller
// holds helpers.mu.
func dropOpen(p *Parcels) {
	for i, q := range helpers.open {
		if q == p {
			helpers.open = slices.Delete(helpers.open, i, i+1)
			return
		}
	}
}

// joinOpen takes a helper slot in the oldest open pass other than
// left, the one the helper is leaving, and returns it, or nil when
// there is none. The caller holds helpers.mu.
func joinOpen(left *Parcels) *Parcels {
	for _, q := range helpers.open {
		if q == left {
			continue // its cursor is spent: that is why the helper left
		}
		q.wg.Add(1)
		if q.short--; q.short == 0 {
			dropOpen(q)
		}
		return q
	}
	return nil
}

// run serves one pass per wake-up.
func (h *helper) run() {
	for p := range h.pass {
		h.serve(p)
	}
}

// serve works p on a fresh slot, then joins the oldest open pass, or
// parks h again when there is none, before telling p's caller — so
// that caller's next pass can find h idle.
func (h *helper) serve(p *Parcels) {
	for p != nil {
		p.work(int(p.slots.Add(1) - 1))
		helpers.mu.Lock()
		next := joinOpen(p)
		if next == nil {
			helpers.idle = append(helpers.idle, h)
		}
		helpers.mu.Unlock()
		p.wg.Done()
		p = next
	}
}
