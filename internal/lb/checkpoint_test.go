package lb

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
)

// TestDistCheckpointMatchesSolver: a Dist checkpoint is byte-identical
// to the serial Solver's at the same step — one format, two writers.
func TestDistCheckpointMatchesSolver(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	serial.Advance(steps)
	var want bytes.Buffer
	if err := serial.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}

	const k = 4
	part := pipePartition(t, dom, k, partition.MethodMultilevel)
	rt := par.NewRuntime(k)
	var got bytes.Buffer
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		d.Advance(steps)
		var w *bytes.Buffer
		if c.Rank() == 0 {
			w = &got
		}
		if err := d.Checkpoint(w); err != nil {
			panic(err)
		}
	})
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("dist checkpoint differs from serial (lens %d vs %d)", want.Len(), got.Len())
	}
	info, err := VerifyCheckpoint(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != steps || info.Sites != dom.NumSites() || info.Q != dom.Model.Q {
		t.Fatalf("VerifyCheckpoint header = %+v", info)
	}
}

// TestDistRestoreContinuesBitExact: restore a mid-run checkpoint into a
// fresh Dist (different rank count) and continue; the final state must
// match an uninterrupted serial run bit-comparably.
func TestDistRestoreContinuesBitExact(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	serial.Advance(30)
	if err := serial.SetIoletDensity(0, 1.013); err != nil {
		t.Fatal(err)
	}
	var cp bytes.Buffer
	if err := serial.Checkpoint(&cp); err != nil {
		t.Fatal(err)
	}
	serial.Advance(25)

	const k = 3
	part := pipePartition(t, dom, k, partition.MethodMultilevel)
	rt := par.NewRuntime(k)
	var mu sync.Mutex
	rho := make([]float64, dom.NumSites())
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		if err := d.Restore(bytes.NewReader(cp.Bytes())); err != nil {
			panic(err)
		}
		if d.StepCount() != 30 {
			panic("restored step count wrong")
		}
		d.Advance(25)
		mu.Lock()
		for li, g := range d.Owned {
			rho[g] = d.Density(li)
		}
		mu.Unlock()
	})
	for g := 0; g < dom.NumSites(); g++ {
		if math.Float64bits(rho[g]) != math.Float64bits(serial.Density(g)) {
			t.Fatalf("site %d: rho %v vs serial %v", g, rho[g], serial.Density(g))
		}
	}
}

// TestVerifyCheckpointRejectsCorruption mirrors the Solver.Restore
// corruption tests at the standalone-verifier level the job store uses.
func TestVerifyCheckpointRejectsCorruption(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(10)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := VerifyCheckpoint(bytes.NewReader(data)); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := VerifyCheckpoint(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupt body accepted")
	}
	// The CRC covers the header too: a silently flipped step field
	// must not verify (it would fake a job's progress on resume).
	badStep := append([]byte(nil), data...)
	badStep[8] ^= 0x01
	if _, err := VerifyCheckpoint(bytes.NewReader(badStep)); err == nil {
		t.Error("corrupt step field accepted")
	}
	if _, err := VerifyCheckpoint(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := VerifyCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// A header claiming an absurd domain must fail fast, not allocate.
	huge := append([]byte(nil), data...)
	huge[16], huge[17], huge[18], huge[19] = 0xff, 0xff, 0xff, 0xff // sites field low bytes
	if _, err := VerifyCheckpoint(bytes.NewReader(huge)); err == nil {
		t.Error("implausible header accepted")
	}
	// The bytes form cross-checks claimed shape against actual length
	// before allocating body buffers.
	if _, err := VerifyCheckpointBytes(data); err != nil {
		t.Errorf("clean checkpoint rejected by bytes verifier: %v", err)
	}
	if _, err := VerifyCheckpointBytes(data[:len(data)-8]); err == nil {
		t.Error("length/header mismatch accepted")
	}
	grown := append([]byte(nil), data...)
	grown[16] += 1 // one more site than the stream holds
	if _, err := VerifyCheckpointBytes(grown); err == nil {
		t.Error("shape/length mismatch accepted")
	}
}
