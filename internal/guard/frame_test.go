package guard

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// heldFrame runs a frame of f on a goroutine of its own and holds it in
// flight until the returned release is called.
func heldFrame(f *Frames) (release func()) {
	started, hold := make(chan struct{}), make(chan struct{})
	go f.Run(func() error {
		close(started)
		<-hold
		return nil
	})
	<-started
	return func() { close(hold) }
}

// awaitYield starts f.Yield on a goroutine of its own and returns once
// that call is blocked on a frame's end, with the channel its wait
// arrives on.
func awaitYield(f *Frames) <-chan time.Duration {
	got := make(chan time.Duration, 1)
	go func() { got <- f.Yield() }()
	for {
		f.mu.Lock()
		waiting := f.ended != nil
		f.mu.Unlock()
		if waiting {
			return got
		}
		runtime.Gosched()
	}
}

// TestYieldWithoutFrameIsFree: with no frame in flight Yield returns 0
// at once and allocates nothing, including after a frame that ended
// in a panic.
func TestYieldWithoutFrameIsFree(t *testing.T) {
	var f Frames
	if got := f.Yield(); got != 0 {
		t.Errorf("Yield with no frame in flight = %v, want 0", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.Yield() }); allocs != 0 {
		t.Errorf("Yield allocates %.1f objects with no frame in flight, want 0", allocs)
	}
	func() {
		defer func() { recover() }()
		f.Run(func() error { panic("boom") })
	}()
	if got := f.Yield(); got != 0 {
		t.Errorf("Yield after a panicked frame = %v, want 0: the frame must end", got)
	}
	if err := f.Run(func() error { return errors.ErrUnsupported }); err != errors.ErrUnsupported {
		t.Errorf("Run returned %v, want fn's error", err)
	}
}

// TestYieldWaitsForFrameInFlight: a Yield called while a frame is in
// flight returns only after that frame ends, with a non-zero wait.
func TestYieldWaitsForFrameInFlight(t *testing.T) {
	var f Frames
	release := heldFrame(&f)
	got := awaitYield(&f)
	select {
	case d := <-got:
		t.Fatalf("Yield returned %v while the frame was in flight", d)
	default:
	}
	release()
	if d := <-got; d <= 0 {
		t.Errorf("Yield waited %v for a frame, want > 0", d)
	}
}

// TestYieldIgnoresLaterFrames: a frame that starts while a Yield is
// waiting does not extend that wait — the Yield returns when the
// frames it found have ended, with the later one still in flight — so
// a yielding solver steps at least once per frame.
func TestYieldIgnoresLaterFrames(t *testing.T) {
	var f Frames
	releaseFirst := heldFrame(&f)
	got := awaitYield(&f)
	releaseLater := heldFrame(&f)
	defer releaseLater()
	releaseFirst()
	if d := <-got; d <= 0 {
		t.Errorf("Yield waited %v, want > 0", d)
	}
	if n := f.inFlight.Load(); n != 1 {
		t.Errorf("%d frames in flight after the first ended, want the later one", n)
	}
}

// TestYieldIgnoresOtherSources: a frame of one Frames does not hold a
// solver yielding on another — each solver steps aside for the frames
// made from its own output only.
func TestYieldIgnoresOtherSources(t *testing.T) {
	var mine, other Frames
	release := heldFrame(&other)
	defer release()
	if got := mine.Yield(); got != 0 {
		t.Errorf("Yield waited %v for another source's frame, want 0", got)
	}
}
