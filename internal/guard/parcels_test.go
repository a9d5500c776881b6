package guard

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
// no other, and the helper set never outgrows GOMAXPROCS-1.
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
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for c, plan := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = parcelsCaller(c, plan)
		}()
	}
	wg.Wait()
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

// parcelsCaller runs one caller's passes on one Parcels and one fn.
func parcelsCaller(c int, plan []parcelsPass) error {
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
