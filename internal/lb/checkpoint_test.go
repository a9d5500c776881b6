package lb

import (
	"bytes"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
)

// stateRecord encodes st as a full checkpoint record.
func stateRecord(st *CheckpointState) []byte {
	var buf bytes.Buffer
	must(st.EncodeTo(&buf))
	return buf.Bytes()
}

// solverRecord encodes s's state as a full checkpoint record — the
// bytes a Dist of any rank count writes at the same step.
func solverRecord(s *Solver) []byte {
	return stateRecord(&CheckpointState{
		Info:     CheckpointInfo{Step: s.step, Sites: s.n, Q: s.M.Q, Iolets: len(s.ioletRho)},
		IoletRho: s.ioletRho,
		F:        s.f,
	})
}

// distRecord gathers d's state and encodes it on rank 0; the other
// ranks get nil. It is collective, like GatherState.
func distRecord(d *Dist) []byte {
	st := d.GatherState(nil)
	if st == nil {
		return nil
	}
	return stateRecord(st)
}

// restoreSolver installs a full checkpoint record into s. s is left
// untouched unless the record verifies and matches its domain.
func restoreSolver(s *Solver, data []byte) error {
	st, err := DecodeCheckpointBytes(data)
	if err != nil {
		return err
	}
	if err := s.checkShape(st.Info, s.n); err != nil {
		return err
	}
	s.step = st.Info.Step
	copy(s.ioletRho, st.IoletRho)
	copy(s.f, st.F)
	return nil
}

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
	want := solverRecord(serial)

	const k = 4
	part := pipePartition(t, dom, k, partition.MethodMultilevel)
	rt := par.NewRuntime(k)
	var got []byte
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		d.Advance(steps)
		if rec := distRecord(d); c.Rank() == 0 {
			got = rec
		}
	})
	if !bytes.Equal(want, got) {
		t.Fatalf("dist checkpoint differs from serial (lens %d vs %d)", len(want), len(got))
	}
	info, err := VerifyCheckpointBytes(got)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != steps || info.Sites != dom.NumSites() || info.Q != dom.Model.Q {
		t.Fatalf("VerifyCheckpointBytes header = %+v", info)
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
	cp, err := DecodeCheckpointBytes(solverRecord(serial))
	if err != nil {
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
		if err := d.RestoreState(cp); err != nil {
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

// TestVerifyCheckpointRejectsCorruption holds the standalone verifier
// the job store uses to the same rejections as a restore.
func TestVerifyCheckpointRejectsCorruption(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(10)
	data := solverRecord(s)
	if _, err := VerifyCheckpointBytes(data); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if _, err := VerifyCheckpointBytes(corrupt); err == nil {
		t.Error("corrupt body accepted")
	}
	// The CRC covers the header too: a silently flipped step field
	// must not verify (it would fake a job's progress on resume).
	badStep := append([]byte(nil), data...)
	badStep[8] ^= 0x01
	if _, err := VerifyCheckpointBytes(badStep); err == nil {
		t.Error("corrupt step field accepted")
	}
	if _, err := VerifyCheckpointBytes(data[:len(data)/3]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := VerifyCheckpointBytes(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// A header claiming an absurd domain must fail fast, not allocate.
	huge := append([]byte(nil), data...)
	huge[16], huge[17], huge[18], huge[19] = 0xff, 0xff, 0xff, 0xff // sites field low bytes
	if _, err := VerifyCheckpointBytes(huge); err == nil {
		t.Error("implausible header accepted")
	}
	// The claimed shape is cross-checked against the actual length.
	if _, err := VerifyCheckpointBytes(data[:len(data)-8]); err == nil {
		t.Error("length/header mismatch accepted")
	}
	grown := append([]byte(nil), data...)
	grown[16] += 1 // one more site than the stream holds
	if _, err := VerifyCheckpointBytes(grown); err == nil {
		t.Error("shape/length mismatch accepted")
	}
}

// Pinned records, one of each kind: tinyCheckpoint and tinyDelta as
// the bufio/binary.Write encoder that the append encoder replaced wrote
// them. A difference is a format change (docs/CHECKPOINT_FORMAT.md)
// and needs a new magic.
const (
	pinnedCheckpointHex = "7163626c000000000700000000000000040000000000000003000000000000000200000000000000" +
		"295c8fc2f528f03fae47e17a14aeef3f000000000000f03f00000000000000400000000000000840" +
		"0000000000001040000000000000144000000000000018400000000000001c400000000000002040" +
		"0000000000002240000000000000244000000000000026400000000000002840b18e83dc7c71071c"
	pinnedDeltaHex = "6463626c000000000b000000000000001200000000000000030000000000000002000000000000000100000000000000" +
		"070000000000000004000000000000000200000000000000000000000000f03f295c8fc2f528f03f0000000000000000" +
		"0000000000000000000000000000f83f000000000000f03f000000000000f83f00000000000000400000000000000440" +
		"00000000000008400000000000000c400000000000001040000000000000124000000000000014400000000000001640" +
		"04000000000000000000000000003840000000000080384000000000000039400000000000803a400000000000003a40" +
		"0000000000803a40502e3113dc069a5f"
)

// TestRecordBytesPinned: both encoders reproduce the pinned records,
// and the pinned records verify and decode to the states they came
// from — records already on disk stay readable.
func TestRecordBytesPinned(t *testing.T) {
	full, _ := hex.DecodeString(pinnedCheckpointHex)
	delta, _ := hex.DecodeString(pinnedDeltaHex)
	if got := tinyCheckpoint(t); !bytes.Equal(got, full) {
		t.Errorf("tinyCheckpoint encodes to\n%x\nwant\n%x", got, full)
	}
	if got := tinyDelta(t); !bytes.Equal(got, delta) {
		t.Errorf("tinyDelta encodes to\n%x\nwant\n%x", got, delta)
	}
	st, err := DecodeCheckpointBytes(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateRecord(st), full) {
		t.Error("pinned checkpoint does not re-encode to itself")
	}
	d, err := DecodeDeltaBytes(delta)
	if err != nil {
		t.Fatal(err)
	}
	if d.Info.Step != 11 || d.Seq != 1 || d.PrevCRC != 7 || d.TileSites != 4 || len(d.TileIdx) != 2 {
		t.Fatalf("pinned delta decodes to %+v tiles %v", d.DeltaInfo, d.TileIdx)
	}
	if !bytes.Equal(reencodeDelta(d), delta) {
		t.Error("pinned delta does not re-encode to itself")
	}
}

// bigState is a state of the kernel-large workload's shape (tree at
// voxel scale 3.0: 79 746 D3Q19 sites) with 4 iolets, filled so that
// every tile differs from a zero base.
func bigState() *CheckpointState {
	const sites, q = 79746, 19
	st := &CheckpointState{
		Info:     CheckpointInfo{Step: 200, Sites: sites, Q: q, Iolets: 4},
		IoletRho: []float64{1.01, 1, 1, 1},
		F:        make([]float64, sites*q),
	}
	for i := range st.F {
		st.F[i] = float64(i%97) * 0.01
	}
	return st
}

// TestCodecAllocations: verifying either record kind allocates
// nothing — both check the bytes in place — and encoding a recycled
// state into a recycled buffer allocates nothing either.
func TestCodecAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes 12 MB records")
	}
	st := bigState()
	base := st.Clone()
	base.Info.Step = 100
	for i := 0; i < len(base.F); i += 3 * DefaultDeltaTileSites * st.Info.Q {
		base.F[i] = -1 // every third tile is dirty
	}
	dirty, err := st.DirtyTiles(base, DefaultDeltaTileSites, nil)
	if err != nil {
		t.Fatal(err)
	}
	var full, delta bytes.Buffer
	must(st.EncodeTo(&full))
	if _, err := st.EncodeDeltaTo(&delta, base, 1, 5, DefaultDeltaTileSites, dirty); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := VerifyCheckpointBytes(full.Bytes()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("VerifyCheckpointBytes allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(3, func() {
		if _, err := VerifyDeltaCheckpointBytes(delta.Bytes()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("VerifyDeltaCheckpointBytes allocates %v times per run", n)
	}
	want := append([]byte(nil), full.Bytes()...)
	if n := testing.AllocsPerRun(3, func() {
		full.Reset()
		must(st.EncodeTo(&full))
	}); n != 0 {
		t.Errorf("EncodeTo into a recycled buffer allocates %v times per run", n)
	}
	if !bytes.Equal(full.Bytes(), want) {
		t.Error("re-encoding into the recycled buffer changed the record")
	}
	if n := testing.AllocsPerRun(3, func() {
		delta.Reset()
		if _, err := st.EncodeDeltaTo(&delta, base, 1, 5, DefaultDeltaTileSites, dirty); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeDeltaTo into a recycled buffer allocates %v times per run", n)
	}
}
