package core

import (
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lb"
)

// lastStateSink keeps the populations of the most recent checkpoint.
type lastStateSink struct{ last *lb.CheckpointState }

func (s *lastStateSink) TakeBuffer() *lb.CheckpointState { return nil }
func (s *lastStateSink) Deliver(st *lb.CheckpointState)  { s.last = st }

// TestOneRankRunIsTheSerialSolver: a 1-rank Simulation gets the trivial
// partition (all sites in part 0, whatever the method — core.New runs
// no partitioner and builds no site graph to find that out; Graph()
// builds it on demand) and its run ends in
// bitwise the populations a plain lb.Solver reaches on the same domain,
// pulse and step count.
func TestOneRankRunIsTheSerialSolver(t *testing.T) {
	const steps = 48
	sink := &lastStateSink{}
	sim, err := New(Config{
		Vessel: geometry.Aneurysm(16, 3, 5), H: 1, Tau: 0.9, Ranks: 1,
		PulseAmp: 0.01, PulsePeriod: 20,
		Checkpoint: sink, CheckpointEvery: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if sim.Part.K != 1 || len(sim.Part.Parts) != sim.Dom.NumSites() {
		t.Fatalf("partition K=%d over %d of %d sites", sim.Part.K, len(sim.Part.Parts), sim.Dom.NumSites())
	}
	for g, p := range sim.Part.Parts {
		if p != 0 {
			t.Fatalf("site %d in part %d of a 1-rank run", g, p)
		}
	}
	if g := sim.Graph(); g == nil || g.N != sim.Dom.NumSites() || g != sim.Graph() {
		t.Error("1-rank Simulation's lazy Graph() must build one graph over every site (repartition and hemesim read it)")
	}
	if err := sim.Run(steps); err != nil {
		t.Fatal(err)
	}
	if sink.last == nil || sink.last.Info.Step != steps {
		t.Fatalf("no checkpoint at the final step: %+v", sink.last)
	}

	twin, err := lb.New(sim.Dom, lb.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.SetPulse(0, &lb.Pulse{Amp: 0.01, Period: 20}); err != nil {
		t.Fatal(err)
	}
	twin.Advance(steps)
	got, want := sink.last.F, twin.F()
	if len(got) != len(want) {
		t.Fatalf("%d populations, serial twin has %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("population %d: %v, serial twin %v", i, got[i], want[i])
		}
	}
}
