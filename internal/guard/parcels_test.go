package guard

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leaktest"
)

var parcelsSeed = flag.Int64("parcels-seed", 0, "run TestParcelsModel at this one seed only (replays a failure)")

// helperCount reports how many helpers the process has started.
func helperCount() int {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	return helpers.started
}

// parcelsPass is one generated pass: boom is the index that panics,
// or -1 for none.
type parcelsPass struct{ n, workers, boom int }

// parcelsBoom is what a generated panic carries: whose pass it was.
type parcelsBoom struct{ caller, pass int }

// TestParcelsModel runs 1–4 concurrent callers against the shared
// helpers, each reusing its own Parcels and fn over random passes, and
// holds every pass to the contract: each index runs exactly once (at
// most once past a panic), slots stay below workers and no two
// participants hold one at once, a panic surfaces on its own caller and
// no other, and the helper set never outgrows GOMAXPROCS-1. In half the
// seeds a holding pass keeps the helpers busy until the callers are
// halfway through their passes, so passes start with none idle and
// the helpers join them late.
func TestParcelsModel(t *testing.T) {
	defer leaktest.Check(t)()
	first, last := int64(1), int64(100)
	if *parcelsSeed != 0 {
		first, last = *parcelsSeed, *parcelsSeed
	}
	for seed := first; seed <= last; seed++ {
		if err := parcelsModelRun(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/guard -run TestParcelsModel -parcels-seed %d", seed, err, seed)
		}
	}
}

func parcelsModelRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	plans := make([][]parcelsPass, 1+rng.Intn(4))
	for c := range plans {
		for range 1 + rng.Intn(20) {
			ps := parcelsPass{n: rng.Intn(100), workers: rng.Intn(6), boom: -1}
			if ps.n > 0 && rng.Intn(3) == 0 {
				ps.boom = rng.Intn(ps.n)
			}
			plans[c] = append(plans[c], ps)
		}
	}
	// The holding pass is released once half the callers' passes have
	// run, or when they have all returned; they never wait for it.
	var (
		total, done atomic.Int32
		release     atomic.Bool
		wg, held    sync.WaitGroup
	)
	for _, plan := range plans {
		total.Add(int32(len(plan)))
	}
	passed := func() {
		if done.Add(1) >= total.Load()/2 {
			release.Store(true)
		}
	}
	if rng.Intn(2) == 0 {
		held.Add(1)
		go func() {
			defer held.Done()
			var p Parcels
			n := runtime.GOMAXPROCS(0)
			p.Run(n, n, func(_, _ int) {
				for !release.Load() {
					runtime.Gosched()
				}
			})
		}()
	}
	errs := make([]error, len(plans))
	for c, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = parcelsCaller(c, plan, passed)
		}()
	}
	wg.Wait()
	release.Store(true)
	held.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if h, limit := helperCount(), runtime.GOMAXPROCS(0)-1; h > limit {
		return fmt.Errorf("%d helpers started, GOMAXPROCS-1 is %d", h, limit)
	}
	return nil
}

// parcelsCaller runs one caller's passes on one Parcels and one fn,
// calling passed after each.
func parcelsCaller(c int, plan []parcelsPass, passed func()) error {
	var (
		p       Parcels
		ran     [100]atomic.Int32
		cur     parcelsPass
		pass    int
		busy    [8]atomic.Bool
		badSlot atomic.Int32
	)
	fn := func(slot, i int) {
		if slot < 0 || slot >= max(cur.workers, 1) || !busy[slot].CompareAndSwap(false, true) {
			badSlot.Store(int32(slot) + 1)
			return
		}
		defer busy[slot].Store(false)
		ran[i].Add(1)
		if i%16 == 0 {
			runtime.Gosched() // let the other callers' passes interleave
		}
		if i == cur.boom {
			panic(parcelsBoom{c, pass})
		}
	}
	for pass, cur = range plan {
		for i := range ran {
			ran[i].Store(0)
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			p.Run(cur.n, cur.workers, fn)
			return nil
		}()
		passed()
		where := fmt.Sprintf("caller %d pass %d %+v", c, pass, cur)
		if s := badSlot.Load(); s != 0 {
			return fmt.Errorf("%s: fn saw slot %d out of range or already held", where, s-1)
		}
		if cur.boom < 0 && got != nil {
			return fmt.Errorf("%s: recovered %v from a pass that did not panic", where, got)
		}
		if cur.boom >= 0 && got != (parcelsBoom{c, pass}) {
			return fmt.Errorf("%s: recovered %v, want its own panic", where, got)
		}
		for i := range ran {
			n := ran[i].Load()
			switch {
			case i >= cur.n && n != 0:
				return fmt.Errorf("%s: index %d past n ran %d times", where, i, n)
			case i < cur.n && (n > 1 || (cur.boom < 0 || i == cur.boom) && n != 1):
				return fmt.Errorf("%s: index %d ran %d times", where, i, n)
			}
		}
	}
	return nil
}

// TestParcelsAllocationFree: a kept Parcels with a kept fn runs a pass
// without allocating, helpers included.
func TestParcelsAllocationFree(t *testing.T) {
	var (
		p   Parcels
		sum atomic.Int64
	)
	fn := func(_, i int) { sum.Add(int64(i)) }
	pass := func() { p.Run(64, 4, fn) }
	pass() // starts the helpers; AllocsPerRun adds a warm-up and 100 passes
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Errorf("a reused Parcels allocates %.1f objects per pass, want 0", allocs)
	}
	if want := int64(102 * 64 * 63 / 2); sum.Load() != want {
		t.Errorf("passes summed %d, want %d", sum.Load(), want)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	// Late joins: every measured pass starts with the helpers held and
	// finishes only once one has joined it.
	h := newHolder()
	defer h.stop()
	j := newLateJoiner(h)
	late := func() { j.pass(2) }
	late()
	if allocs := testing.AllocsPerRun(100, late); allocs != 0 {
		t.Errorf("a late-joined pass allocates %.1f objects, want 0", allocs)
	}
	if !j.joined.Load() {
		t.Error("no helper joined the last pass")
	}
}

// holder keeps every helper busy: from a goroutine of its own it runs
// passes of GOMAXPROCS parcels whose fn waits for release, so a pass
// started meanwhile finds no helper idle. Kept across passes, it
// allocates nothing.
type holder struct {
	p        Parcels
	fn       func(slot, i int)
	n        int
	entered  atomic.Int32
	release  atomic.Bool
	run      chan struct{}
	finished chan struct{}
}

func newHolder() *holder {
	h := &holder{n: runtime.GOMAXPROCS(0), run: make(chan struct{}), finished: make(chan struct{})}
	h.fn = func(_, _ int) {
		h.entered.Add(1)
		for !h.release.Load() {
			runtime.Gosched()
		}
	}
	go func() {
		for range h.run {
			h.p.Run(h.n, h.n, h.fn)
			h.finished <- struct{}{}
		}
	}()
	return h
}

// hold starts a holding pass and returns once its goroutine and every
// helper are inside it. Release it with let, then wait for it with
// <-h.finished.
func (h *holder) hold() {
	h.entered.Store(0)
	h.release.Store(false)
	h.run <- struct{}{}
	for h.entered.Load() < int32(h.n) {
		runtime.Gosched()
	}
}

func (h *holder) let()  { h.release.Store(true) }
func (h *holder) stop() { close(h.run) }

// lateJoiner is a kept pass that can only finish with a late join: its
// caller releases the holder from index 0 and then waits there until
// a helper has run a parcel (or a minute has gone, so a broken join
// fails instead of hanging). It records every slot it saw.
type lateJoiner struct {
	p      Parcels
	fn     func(slot, i int)
	h      *holder
	joined atomic.Bool
	ran    [64]atomic.Int32
	slot   [64]atomic.Int32 // the slot index i ran on
}

func newLateJoiner(h *holder) *lateJoiner {
	j := &lateJoiner{h: h}
	j.fn = func(slot, i int) {
		j.ran[i].Add(1)
		j.slot[i].Store(int32(slot))
		if slot >= 1 {
			j.joined.Store(true)
		}
		if i == 0 {
			j.h.let()
			for deadline := time.Now().Add(time.Minute); !j.joined.Load() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
		}
	}
	return j
}

// pass holds the helpers, runs one late-joined pass on workers
// participants and waits for the holder to finish.
func (j *lateJoiner) pass(workers int) {
	j.joined.Store(false)
	for i := range j.ran {
		j.ran[i].Store(0)
	}
	j.h.hold()
	j.p.Run(len(j.ran), workers, j.fn)
	<-j.h.finished
}

// TestParcelsLateJoin: a pass that starts while another holds every
// helper runs on its caller alone until that pass ends; then the
// helpers leaving it join the open pass, on slots 1..workers-1, and
// the pass's ran-count check holds.
func TestParcelsLateJoin(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a helper to hold; needs GOMAXPROCS >= 2")
	}
	h := newHolder()
	defer h.stop()
	j := newLateJoiner(h)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		j.pass(workers)
		if !j.joined.Load() {
			t.Fatalf("workers=%d: no helper joined the pass after the holding pass ended", workers)
		}
		for i := range j.ran {
			if n := j.ran[i].Load(); n != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, n)
			}
			if s := j.slot[i].Load(); s >= int32(workers) {
				t.Errorf("workers=%d: index %d ran on slot %d", workers, i, s)
			}
		}
	}
}

// TestParcelsPanicsOnLostParcels: a pass whose participants ran other
// than n parcels without any of them panicking must not return as if
// every index had run. The fn here moves the cursor past three indices
// the way a lost claim would.
func TestParcelsPanicsOnLostParcels(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the count is checked on passes with helpers; needs GOMAXPROCS >= 2")
	}
	var p Parcels
	fn := func(_, i int) {
		if i == 0 {
			p.next.Add(3)
		}
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		p.Run(64, 2, fn)
		return nil
	}()
	if want := "guard: pass ran 61 of 64 parcels"; got != want {
		t.Errorf("recovered %v, want %q", got, want)
	}
}
