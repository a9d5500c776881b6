package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/lb"
)

// chainFixture builds a base state plus n successors, each advancing
// the step and touching a couple of tiles, and returns the encoded full
// checkpoint and the encoded delta records.
func chainFixture(t *testing.T, n int) (states []*lb.CheckpointState, full []byte, deltas [][]byte) {
	t.Helper()
	base := &lb.CheckpointState{
		Info:     lb.CheckpointInfo{Step: 10, Sites: 40, Q: 3, Iolets: 2},
		IoletRho: []float64{1.0, 0.98},
		F:        make([]float64, 40*3),
	}
	for i := range base.F {
		base.F[i] = float64(i) * 0.25
	}
	states = []*lb.CheckpointState{base}
	var buf bytes.Buffer
	if err := base.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	full = append([]byte(nil), buf.Bytes()...)
	prevCRC, err := lb.CheckpointCRC(full)
	if err != nil {
		t.Fatal(err)
	}
	cur := base
	for seq := 1; seq <= n; seq++ {
		next := cur.Clone()
		next.Info.Step = cur.Info.Step + 3
		next.F[(seq*11)%len(next.F)] += float64(seq)
		next.IoletRho[0] += 0.002
		buf.Reset()
		stats, err := next.EncodeDeltaTo(&buf, cur, uint64(seq), prevCRC, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, append([]byte(nil), buf.Bytes()...))
		states = append(states, next)
		prevCRC = stats.CRC
		cur = next
	}
	return states, full, deltas
}

// putChain installs a full checkpoint plus deltas under a job.
func putChain(t *testing.T, s *Store, id string, full []byte, deltas [][]byte) {
	t.Helper()
	if err := s.PutCheckpoint(id, full); err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if err := s.PutCheckpointDelta(id, uint64(i+1), d); err != nil {
			t.Fatal(err)
		}
	}
}

// sameState compares two states bit for bit.
func sameState(a, b *lb.CheckpointState) bool {
	if a.Info != b.Info || len(a.F) != len(b.F) || len(a.IoletRho) != len(b.IoletRho) {
		return false
	}
	for i := range a.F {
		if a.F[i] != b.F[i] {
			return false
		}
	}
	for i := range a.IoletRho {
		if a.IoletRho[i] != b.IoletRho[i] {
			return false
		}
	}
	return true
}

func TestCheckpointChainRoundTrip(t *testing.T) {
	s := open(t)
	states, full, deltas := chainFixture(t, 3)
	putChain(t, s, "j", full, deltas)

	want := states[len(states)-1]
	step, err := s.VerifyCheckpoint("j")
	if err != nil || step != want.Info.Step {
		t.Fatalf("VerifyCheckpoint = (%d, %v), want step %d", step, err, want.Info.Step)
	}
	st, err := s.CheckpointState("j")
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(st, want) {
		t.Fatal("chain reconstruction is not bit-exact")
	}
	// Checkpoint re-encodes the reconstruction as a canonical full
	// stream: it must decode back to the same state and report the
	// chain's final step.
	data, step, err := s.Checkpoint("j")
	if err != nil || step != want.Info.Step {
		t.Fatalf("Checkpoint = (step %d, %v)", step, err)
	}
	st2, err := lb.DecodeCheckpointBytes(data)
	if err != nil || !sameState(st2, want) {
		t.Fatalf("re-encoded chain does not round trip: %v", err)
	}
}

func TestCheckpointChainTruncatesAtCorruptTail(t *testing.T) {
	s := open(t)
	states, full, deltas := chainFixture(t, 3)
	putChain(t, s, "j", full, deltas)

	// Corrupt the middle delta: the chain must fall back to base+d1 and
	// ignore d2, d3 — never serve a state past the corruption.
	path := filepath.Join(s.Root(), "jobs", "j", deltaFileName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.CheckpointState("j")
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(st, states[1]) {
		t.Fatalf("after corrupt tail: step %d, want fallback to step %d", st.Info.Step, states[1].Info.Step)
	}
	// A gap truncates the same way: with d1 gone, even intact later
	// deltas are unreachable and resume falls back to the full base.
	if err := os.Remove(filepath.Join(s.Root(), "jobs", "j", deltaFileName(1))); err != nil {
		t.Fatal(err)
	}
	st, err = s.CheckpointState("j")
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(st, states[0]) {
		t.Fatalf("after gap: step %d, want base step %d", st.Info.Step, states[0].Info.Step)
	}
}

// TestOpenSweepsStaleDeltas pins the orphan-delta sweep: chain members
// past a corruption and deltas stranded by a crashed compaction (a newer
// full checkpoint landed but the old chain was not removed) are deleted
// on store open, and so is a directory no journal record claims.
func TestOpenSweepsStaleDeltas(t *testing.T) {
	s := open(t)
	if err := s.AppendSubmit("j", map[string]any{}, JobRecord{ID: "j", State: "running"}); err != nil {
		t.Fatal(err)
	}
	states, full, deltas := chainFixture(t, 3)
	putChain(t, s, "j", full, deltas)

	// Simulate a crash mid-compaction: a new full checkpoint (the final
	// chain state) replaces the base, but the old deltas linger.
	var buf bytes.Buffer
	if err := states[len(states)-1].EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("j", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The stale deltas fail linkage against the new base (wrong PrevCRC,
	// non-advancing steps), so reads already ignore them.
	st, err := s.CheckpointState("j")
	if err != nil || !sameState(st, states[len(states)-1]) {
		t.Fatalf("stale deltas leaked into the chain: %v", err)
	}
	// An orphan with no base at all.
	orphanDir := filepath.Join(s.Root(), "jobs", "orphan")
	if err := os.MkdirAll(orphanDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphanDir, deltaFileName(1)), deltas[0], 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the sweep must remove every stale file and keep the base.
	s.CloseJournal()
	s2 := openDir(t, s.Root())
	for _, id := range []string{"j", "orphan"} {
		left, err := filepath.Glob(filepath.Join(s2.Root(), "jobs", id, checkpointDeltaGlob))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("stale deltas for %s survived reopen: %v", id, left)
		}
	}
	if _, err := os.Stat(orphanDir); !os.IsNotExist(err) {
		t.Fatalf("orphan directory survived reopen: %v", err)
	}
	if st, err := s2.CheckpointState("j"); err != nil || !sameState(st, states[len(states)-1]) {
		t.Fatalf("sweep damaged the live checkpoint: %v", err)
	}
}

func TestDropCheckpointDeltas(t *testing.T) {
	s := open(t)
	_, full, deltas := chainFixture(t, 2)
	putChain(t, s, "j", full, deltas)
	if err := s.DropCheckpointDeltas("j"); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(s.Root(), "jobs", "j", checkpointDeltaGlob))
	if err != nil || len(left) != 0 {
		t.Fatalf("deltas after drop: (%v, %v)", left, err)
	}
	step, err := s.VerifyCheckpoint("j")
	if err != nil || step != 10 {
		t.Fatalf("VerifyCheckpoint after drop = (%d, %v), want base step 10", step, err)
	}
	s.Freeze()
	putChain(t, s, "k", full, deltas) // silently dropped
	if err := s.DropCheckpointDeltas("j"); err != nil {
		t.Fatalf("frozen drop: %v", err)
	}
}

// TestVerifyCheckpointAllocatesOnlyReads: verifying a chain of the
// kernel-large workload's shape (tree at voxel scale 3.0: 79 746 D3Q19
// sites, a 12 MB base and three deltas) allocates the file bytes it
// reads and little else — no record is decoded to learn the step.
func TestVerifyCheckpointAllocatesOnlyReads(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 12 MB chain")
	}
	s, _ := openMem(t, 1)
	const sites, q = 79746, 19
	cur := &lb.CheckpointState{
		Info:     lb.CheckpointInfo{Step: 100, Sites: sites, Q: q, Iolets: 4},
		IoletRho: []float64{1.01, 1, 1, 1},
		F:        make([]float64, sites*q),
	}
	for i := range cur.F {
		cur.F[i] = float64(i%97) * 0.01
	}
	var buf bytes.Buffer
	if err := cur.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	prevCRC, err := lb.CheckpointCRC(full)
	if err != nil {
		t.Fatal(err)
	}
	read := len(full)
	var deltas [][]byte
	for seq := uint64(1); seq <= 3; seq++ {
		next := cur.Clone()
		next.Info.Step += 100
		for i := int(seq); i < len(next.F); i += 5 * lb.DefaultDeltaTileSites * q {
			next.F[i] += 1
		}
		buf.Reset()
		stats, err := next.EncodeDeltaTo(&buf, cur, seq, prevCRC, lb.DefaultDeltaTileSites, nil)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, append([]byte(nil), buf.Bytes()...))
		read += stats.Bytes
		prevCRC, cur = stats.CRC, next
	}
	putChain(t, s, "j", full, deltas)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	step, err := s.VerifyCheckpoint("j")
	runtime.ReadMemStats(&after)
	if err != nil || step != cur.Info.Step {
		t.Fatalf("VerifyCheckpoint = (%d, %v), want step %d", step, err, cur.Info.Step)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(read)+64<<10 {
		t.Fatalf("VerifyCheckpoint allocated %d bytes reading %d", alloc, read)
	}
}
