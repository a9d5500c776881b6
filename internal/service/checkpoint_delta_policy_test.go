package service

import (
	"sync"
	"testing"

	"repro/internal/lb"
)

// chainPutter records every chain operation in arrival order so tests
// can assert the full/delta/drop policy exactly.
type chainPutter struct {
	mu     sync.Mutex
	order  []string
	fulls  [][]byte
	deltas [][]byte
}

func (p *chainPutter) PutCheckpoint(id string, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.order = append(p.order, "full")
	p.fulls = append(p.fulls, append([]byte(nil), data...))
	return nil
}

func (p *chainPutter) PutCheckpointDelta(id string, seq uint64, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.order = append(p.order, "delta")
	p.deltas = append(p.deltas, append([]byte(nil), data...))
	return nil
}

func (p *chainPutter) DropCheckpointDeltas(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.order = append(p.order, "drop")
	return nil
}

func (p *chainPutter) writes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fulls) + len(p.deltas)
}

// policyState builds a 600-site state (3 tiles under the default
// 256-site granularity) at the given step.
func policyState(step int) *lb.CheckpointState {
	st := &lb.CheckpointState{
		Info:     lb.CheckpointInfo{Step: step, Sites: 600, Q: 3, Iolets: 1},
		IoletRho: []float64{1.0},
		F:        make([]float64, 600*3),
	}
	for i := range st.F {
		st.F[i] = float64(i) * 0.5
	}
	return st
}

// TestCkptWriterDeltaPolicy pins the chain policy end to end: the first
// write is a full, lightly-dirty successors become linked delta
// records, the fullEvery-th write rolls over to a full, an all-dirty
// write after it stays a linked delta, and every full drops the
// superseded deltas. Both persisted chains must reconstruct their last
// state bit-exactly.
func TestCkptWriterDeltaPolicy(t *testing.T) {
	metrics := &Metrics{}
	p := &chainPutter{}
	w := newCkptWriter(p, "job-test", metrics, nil, nil, nil, nil, 3, 0)
	defer w.Close()

	deliver := func(st *lb.CheckpointState) {
		n := p.writes()
		w.Deliver(st)
		waitFor(t, "checkpoint write", func() bool { return p.writes() > n })
	}

	base := policyState(10)
	deliver(base) // full #1

	next := func(prev *lb.CheckpointState, step, touch int) *lb.CheckpointState {
		st := prev.Clone()
		st.Info.Step = step
		for i := 0; i < touch; i++ {
			st.F[i*lb.DefaultDeltaTileSites*3] += 1.0
		}
		return st
	}
	s20 := next(base, 20, 1)
	deliver(s20) // delta seq 1 (1/3 tiles dirty)
	s30 := next(s20, 30, 1)
	deliver(s30) // delta seq 2
	s40 := next(s30, 40, 1)
	deliver(s40) // nextSeq == fullEvery: full #2
	s50 := next(s40, 50, 3)
	deliver(s50) // 3/3 tiles dirty: still delta seq 1 over full #2

	p.mu.Lock()
	defer p.mu.Unlock()
	want := []string{"full", "drop", "delta", "delta", "full", "drop", "delta"}
	if len(p.order) != len(want) {
		t.Fatalf("operation order %v, want %v", p.order, want)
	}
	for i := range want {
		if p.order[i] != want[i] {
			t.Fatalf("operation order %v, want %v", p.order, want)
		}
	}
	if n := metrics.CheckpointDeltasWritten.Load(); n != 3 {
		t.Errorf("deltas_written = %d, want 3", n)
	}
	if n := metrics.CheckpointDirtyRatioPermille.Load(); n != 1000 {
		t.Errorf("dirty_ratio_permille after all-dirty write = %d, want 1000", n)
	}
	if metrics.CheckpointDeltaBytes.Load() <= 0 {
		t.Error("delta bytes were not accounted")
	}

	// Each full plus its deltas must reconstruct the chain's last state
	// bit-exactly, with CRC linkage intact: full #1 + deltas 1–2 is s30,
	// the rollover full #2 (s40) + the all-dirty delta is s50.
	replayChain(t, p.fulls[0], p.deltas[:2], s30)
	if info, err := lb.VerifyCheckpointBytes(p.fulls[1]); err != nil || info.Step != 40 {
		t.Fatalf("rollover full = (step %d, %v), want step 40", info.Step, err)
	}
	replayChain(t, p.fulls[1], p.deltas[2:], s50)
}

// replayChain applies deltas to full in order, checking their sequence
// numbers and CRC links, and compares the result with want.
func replayChain(t *testing.T, full []byte, deltas [][]byte, want *lb.CheckpointState) {
	t.Helper()
	st, err := lb.DecodeCheckpointBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	prevCRC, err := lb.CheckpointCRC(full)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range deltas {
		d, err := lb.DecodeDeltaBytes(raw)
		if err != nil {
			t.Fatalf("delta %d does not decode: %v", i, err)
		}
		if d.Seq != uint64(i+1) || d.PrevCRC != prevCRC {
			t.Fatalf("delta %d linkage: seq %d prevCRC %#x, want seq %d prevCRC %#x",
				i, d.Seq, d.PrevCRC, i+1, prevCRC)
		}
		if err := st.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d does not apply: %v", i, err)
		}
		prevCRC = d.CRC
	}
	if st.Info.Step != want.Info.Step {
		t.Fatalf("reconstructed step %d, want %d", st.Info.Step, want.Info.Step)
	}
	for i := range st.F {
		if st.F[i] != want.F[i] {
			t.Fatalf("step %d reconstruction diverges at F[%d]", want.Info.Step, i)
		}
	}
}
