package guard

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/leaktest"
)

func TestCapturePanic(t *testing.T) {
	err := Capture("solver", func() error { panic("kernel exploded") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if pe.Op != "solver" || pe.Value != "kernel exploded" {
		t.Fatalf("PanicError = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "guard_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pe.Stack)
	}
}

func TestCapturePassthrough(t *testing.T) {
	want := errors.New("plain failure")
	if err := Capture("op", func() error { return want }); err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
	if err := Capture("op", func() error { return nil }); err != nil {
		t.Fatalf("got %v, want nil", err)
	}
}

func TestDegraderENOSPCTripsImmediately(t *testing.T) {
	var changes []bool
	d := NewDegrader(3, time.Hour, nil, func(deg bool, _ error) { changes = append(changes, deg) })
	defer d.Close()
	err := fmt.Errorf("store: %w", syscall.ENOSPC)
	if !d.WriteFailed(err) {
		t.Fatal("ENOSPC did not trip the degrader on the first failure")
	}
	if !d.Degraded() || !IsNoSpace(d.Cause()) {
		t.Fatalf("degraded=%v cause=%v", d.Degraded(), d.Cause())
	}
	if len(changes) != 1 || !changes[0] {
		t.Fatalf("onChange calls = %v", changes)
	}
}

func TestDegraderConsecutiveThreshold(t *testing.T) {
	d := NewDegrader(3, time.Hour, nil, nil)
	defer d.Close()
	generic := errors.New("i/o error")
	if d.WriteFailed(generic) || d.WriteFailed(generic) {
		t.Fatal("tripped below the threshold")
	}
	d.WriteOK() // success resets the streak
	if d.WriteFailed(generic) || d.WriteFailed(generic) {
		t.Fatal("tripped despite the reset")
	}
	if !d.WriteFailed(generic) {
		t.Fatal("third consecutive failure did not trip")
	}
}

func TestDegraderProbeRestores(t *testing.T) {
	var probes atomic.Int64
	restored := make(chan struct{})
	d := NewDegrader(1, time.Millisecond, func() error {
		if probes.Add(1) < 3 {
			return errors.New("still full")
		}
		return nil
	}, func(deg bool, _ error) {
		if !deg {
			close(restored)
		}
	})
	defer d.Close()
	d.WriteFailed(errors.New("fail")) // after=1 trips at once
	select {
	case <-restored:
	case <-time.After(5 * time.Second):
		t.Fatal("probe never restored persistence")
	}
	if d.Degraded() {
		t.Fatal("still degraded after successful probe")
	}
	if got := probes.Load(); got < 3 {
		t.Fatalf("probe ran %d times, want >= 3", got)
	}
}

func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(2, 2) // 2/s, burst 2
	t0 := time.Unix(1000, 0)
	if !b.AllowAt(t0) || !b.AllowAt(t0) {
		t.Fatal("burst tokens not available")
	}
	if b.AllowAt(t0) {
		t.Fatal("allowed past the burst")
	}
	// 500ms refills one token at 2/s.
	if !b.AllowAt(t0.Add(500 * time.Millisecond)) {
		t.Fatal("refill did not land")
	}
	if b.AllowAt(t0.Add(500 * time.Millisecond)) {
		t.Fatal("double-spent the refilled token")
	}
	// A long idle period caps at burst, not unbounded.
	late := t0.Add(time.Hour)
	if !b.AllowAt(late) || !b.AllowAt(late) {
		t.Fatal("bucket did not refill to burst")
	}
	if b.AllowAt(late) {
		t.Fatal("bucket exceeded burst after idle")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	b := NewTokenBucket(0, 0)
	for i := 0; i < 100; i++ {
		if !b.Allow() {
			t.Fatal("rate<=0 must mean unlimited")
		}
	}
	var nilBucket *TokenBucket
	if !nilBucket.AllowAt(time.Now()) {
		t.Fatal("nil bucket must allow")
	}
}

func TestMemWatermark(t *testing.T) {
	if NewMemWatermark(0).Exceeded() {
		t.Fatal("limit 0 must disable the watermark")
	}
	var nilW *MemWatermark
	if nilW.Exceeded() {
		t.Fatal("nil watermark must be disabled")
	}
	if !NewMemWatermark(1).Exceeded() {
		t.Fatal("1-byte limit must always be exceeded")
	}
}

// TestChunkPanicSurfacesOnCaller: whichever goroutine of ForChunks a
// panic happens on, the caller — and so a Capture around it — recovers
// exactly the value panicked with, after every goroutine has returned.
func TestChunkPanicSurfacesOnCaller(t *testing.T) {
	defer leaktest.Check(t)()
	boom := errors.New("index 7 exploded")
	for _, workers := range []int{1, 2, 4} {
		for round := 0; round < 50; round++ { // caller and helpers both get to claim index 7
			var ran [64]atomic.Int32
			err := Capture("chunks", func() error {
				ForChunks(len(ran), workers, func(i int) {
					ran[i].Add(1)
					if i == 7 {
						panic(boom)
					}
				})
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != boom {
				t.Fatalf("%d workers: got %v, want a PanicError carrying %v", workers, err, boom)
			}
			for i := range ran {
				if n := ran[i].Load(); n > 1 || (i <= 7 && n != 1) {
					t.Fatalf("%d workers: index %d ran %d times", workers, i, n)
				}
			}
		}
	}

	// Every index panics, so panics race on the caller and on helpers
	// alike; the caller gets one of the values.
	const workers = 4
	err := Capture("chunks", func() error {
		ForChunks(64, workers, func(i int) { panic(i) })
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a PanicError", err)
	}
	if i, ok := pe.Value.(int); !ok || i < 0 || i >= 64 {
		t.Fatalf("recovered %v, want one of the indices", pe.Value)
	}
}

// TestChunksRunEachIndexOnce at worker counts below, at and above n.
func TestChunksRunEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			ran := make([]atomic.Int32, n)
			ForChunks(n, workers, func(i int) { ran[i].Add(1) })
			for i := range ran {
				if ran[i].Load() != 1 {
					t.Fatalf("n %d, %d workers: index %d ran %d times", n, workers, i, ran[i].Load())
				}
			}
		}
	}
}
