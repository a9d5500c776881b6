package core

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lb"
)

// encodeSink implements CheckpointSink the way the service layer does:
// Deliver is an O(1) hand-off to a writer goroutine that encodes the
// state concurrently with the next solver steps, recycling buffers
// through TakeBuffer. Under -race this pins down the tentpole's
// concurrency contract from the outside: collide+stream site parcels
// on guard's shared helpers, the in-loop gathers, and an off-loop encoder all touching solver
// state with no detector-visible conflict.
type encodeSink struct {
	mu      sync.Mutex
	free    *lb.CheckpointState
	work    chan *lb.CheckpointState
	done    chan struct{}
	encoded int
	err     error
}

func newEncodeSink() *encodeSink {
	s := &encodeSink{work: make(chan *lb.CheckpointState, 2), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		for st := range s.work {
			if err := st.EncodeTo(io.Discard); err != nil && s.err == nil {
				s.err = err
			}
			s.encoded++
			s.mu.Lock()
			s.free = st
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *encodeSink) TakeBuffer() *lb.CheckpointState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.free
	s.free = nil
	return st
}

func (s *encodeSink) Deliver(st *lb.CheckpointState) { s.work <- st }

func (s *encodeSink) close() {
	close(s.work)
	<-s.done
}

// TestTiledRunWithConcurrentGathers steps a tiled distributed solver
// while snapshot copies are scanned and checkpoint states encoded on
// their own goroutines — the production shape of hemeserved's render
// offload and durable-checkpoint paths. Run with -race (CI does) to
// verify the worker pool's happens-before edges.
func TestTiledRunWithConcurrentGathers(t *testing.T) {
	sink := newEncodeSink()
	snaps := make(chan *Snapshot, 16)
	var consumer sync.WaitGroup
	consumer.Add(1)
	var scanned int
	go func() {
		defer consumer.Done()
		for sn := range snaps {
			// Read every field array in full, concurrently with the
			// solver's next steps — snapshots are immutable copies.
			var sum float64
			for i := range sn.Field.Rho {
				sum += sn.Field.Rho[i] + sn.Field.Ux[i] + sn.Field.Uy[i] + sn.Field.Uz[i] + sn.Field.WSS[i]
			}
			if sum != sum {
				t.Error("snapshot fields went NaN")
			}
			if sn.Diverged {
				t.Errorf("healthy run flagged diverged at step %d", sn.Step)
			}
			scanned++
		}
	}()

	// Each rank owns ~125 parcels, enough for two participants.
	s, err := New(Config{
		Vessel: geometry.Pipe(64, 18), H: 1, Tau: 0.9,
		Ranks: 2, Threads: 3, VizEvery: 0,
		SnapshotEvery:   5,
		OnSnapshot:      func(sn *Snapshot) { snaps <- sn },
		Checkpoint:      sink,
		CheckpointEvery: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if runtime.GOMAXPROCS(0) >= 2 && s.Participants < 2 {
		t.Fatalf("rank 0 of a %d-site run steps on %d participant(s); the test needs its passes split", s.Dom.NumSites(), s.Participants)
	}
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	close(snaps)
	consumer.Wait()
	sink.close()

	if sink.err != nil {
		t.Fatalf("checkpoint encode failed: %v", sink.err)
	}
	if scanned == 0 {
		t.Error("no snapshots reached the concurrent consumer")
	}
	if sink.encoded == 0 {
		t.Error("no checkpoint states reached the encoder goroutine")
	}
}
