package lb

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// deltaBaseState builds a small in-memory state with a deterministic
// fill: sites*q populations plus iolet densities. tileSites 4 over 18
// sites gives 5 tiles with a short last tile — the shape that exercises
// both admissible record lengths.
func deltaBaseState(sites, q, iolets int) *CheckpointState {
	st := &CheckpointState{
		Info:     CheckpointInfo{Step: 10, Sites: sites, Q: q, Iolets: iolets},
		IoletRho: make([]float64, iolets),
		F:        make([]float64, sites*q),
	}
	for i := range st.IoletRho {
		st.IoletRho[i] = 1.0 + 0.01*float64(i)
	}
	for i := range st.F {
		st.F[i] = float64(i) * 0.5
	}
	return st
}

// reencodeDelta rebuilds the canonical byte stream from a decoded
// record — the fuzz property "accept implies bit-exact round trip"
// needs an encoder that works without the base state.
func reencodeDelta(d *CheckpointDelta) []byte {
	var buf bytes.Buffer
	for _, v := range []uint64{
		deltaMagic,
		uint64(d.Info.Step), uint64(d.Info.Sites), uint64(d.Info.Q), uint64(d.Info.Iolets),
		d.Seq, d.PrevCRC, uint64(d.TileSites), uint64(d.DirtyTiles),
	} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for _, v := range d.IoletRho {
		binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
	}
	at := 0
	for _, t := range d.TileIdx {
		binary.Write(&buf, binary.LittleEndian, uint64(t))
		n := deltaTileLen(t, d.Info.Sites, d.TileSites) * d.Info.Q
		for _, v := range d.TileF[at : at+n] {
			binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
		}
		at += n
	}
	sum := crc64.Checksum(buf.Bytes(), crcTable)
	binary.Write(&buf, binary.LittleEndian, sum)
	return buf.Bytes()
}

func TestDirtyTilesExact(t *testing.T) {
	base := deltaBaseState(18, 3, 2)
	st := base.Clone()
	st.Info.Step = 11
	if dirty, err := st.DirtyTiles(base, 4, nil); err != nil || len(dirty) != 0 {
		t.Fatalf("identical states: dirty=%v err=%v", dirty, err)
	}
	// Touch one site in tile 0, one in tile 3, and one in the short
	// last tile (tile 4 covers sites 16..17).
	st.F[2*3+1] += 1
	st.F[13*3] += 1
	st.F[17*3+2] += 1
	dirty, err := st.DirtyTiles(base, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3, 4}; !reflect.DeepEqual(dirty, want) {
		t.Fatalf("dirty tiles %v, want %v", dirty, want)
	}
	// NaN payloads must compare by bit pattern, not ==.
	st2 := base.Clone()
	st2.Info.Step = 11
	st2.F[4*3] = math.NaN()
	dirty, err = st2.DirtyTiles(base, 4, dirty[:0])
	if err != nil || !reflect.DeepEqual(dirty, []int{1}) {
		t.Fatalf("NaN dirty tiles %v err=%v, want [1]", dirty, err)
	}
}

func TestDirtyTilesAllocFree(t *testing.T) {
	base := deltaBaseState(1024, 9, 2)
	st := base.Clone()
	st.Info.Step = 11
	st.F[500] += 1
	dst := make([]int, 0, NumDeltaTiles(1024, DefaultDeltaTileSites))
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		dst, err = st.DirtyTiles(base, DefaultDeltaTileSites, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DirtyTiles with preallocated dst allocates %v/run", allocs)
	}
}

// TestDeltaRoundTrip is the core bit-exactness contract: mutate a few
// tiles (including the short last one) and the iolets, encode a delta,
// decode it, apply onto a copy of the base — the result must equal the
// mutated state bit for bit.
func TestDeltaRoundTrip(t *testing.T) {
	base := deltaBaseState(18, 3, 2)
	st := base.Clone()
	st.Info.Step = 13
	st.F[0] = -4.25
	st.F[17*3+1] = math.Inf(1)
	st.IoletRho[1] = 0.5

	var buf bytes.Buffer
	stats, err := st.EncodeDeltaTo(&buf, base, 1, 0xdeadbeef, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tiles != 5 || stats.Dirty != 2 {
		t.Fatalf("stats %+v, want 5 tiles 2 dirty", stats)
	}
	if stats.Bytes != buf.Len() {
		t.Fatalf("stats.Bytes %d, buffer has %d", stats.Bytes, buf.Len())
	}
	if crc, err := CheckpointCRC(buf.Bytes()); err != nil || crc != stats.CRC {
		t.Fatalf("trailer crc %#x err=%v, stats say %#x", crc, err, stats.CRC)
	}

	d, err := DecodeDeltaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Info != st.Info || d.Seq != 1 || d.PrevCRC != 0xdeadbeef || d.TileSites != 4 || d.DirtyTiles != 2 {
		t.Fatalf("decoded header %+v", d.DeltaInfo)
	}
	if !reflect.DeepEqual(d.TileIdx, []int{0, 4}) {
		t.Fatalf("decoded tiles %v", d.TileIdx)
	}

	got := base.Clone()
	if err := got.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got.Info != st.Info || !equalBits(got.F, st.F) || !equalBits(got.IoletRho, st.IoletRho) {
		t.Fatal("applied delta does not reproduce the mutated state bit-exactly")
	}
}

// TestDeltaChain walks a three-record chain with prevCRC linkage off a
// full checkpoint and verifies the cumulative replay.
func TestDeltaChain(t *testing.T) {
	base := deltaBaseState(18, 3, 2)
	var full bytes.Buffer
	if err := base.EncodeTo(&full); err != nil {
		t.Fatal(err)
	}
	prevCRC, err := CheckpointCRC(full.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	cur := base.Clone()
	replay := base.Clone()
	for seq := uint64(1); seq <= 3; seq++ {
		next := cur.Clone()
		next.Info.Step = cur.Info.Step + 2
		next.F[int(seq)*7] += float64(seq)
		next.IoletRho[0] += 0.001

		var buf bytes.Buffer
		stats, err := next.EncodeDeltaTo(&buf, cur, seq, prevCRC, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeDeltaBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if d.PrevCRC != prevCRC || d.Seq != seq {
			t.Fatalf("seq %d: linkage %+v (want prev %#x)", seq, d.DeltaInfo, prevCRC)
		}
		if err := replay.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		prevCRC = stats.CRC
		cur = next
	}
	if replay.Info != cur.Info || !equalBits(replay.F, cur.F) || !equalBits(replay.IoletRho, cur.IoletRho) {
		t.Fatal("chain replay does not reproduce the final state")
	}
}

// TestDeltaSingleShortTile covers a domain smaller than the tile
// granularity: one short tile spans everything.
func TestDeltaSingleShortTile(t *testing.T) {
	base := deltaBaseState(5, 3, 1)
	st := base.Clone()
	st.Info.Step = 11
	st.F[7] += 1
	var buf bytes.Buffer
	stats, err := st.EncodeDeltaTo(&buf, base, 1, 1, DefaultDeltaTileSites, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tiles != 1 || stats.Dirty != 1 {
		t.Fatalf("stats %+v", stats)
	}
	d, err := DecodeDeltaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	if err := got.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if !equalBits(got.F, st.F) {
		t.Fatal("short-tile round trip not bit-exact")
	}
}

// TestDeltaEmptyDirty pins the quiescent case: nothing changed but the
// step (and possibly steering state) — the record carries only iolets.
func TestDeltaEmptyDirty(t *testing.T) {
	base := deltaBaseState(18, 3, 2)
	st := base.Clone()
	st.Info.Step = 11
	st.IoletRho[0] = 2.5
	var buf bytes.Buffer
	stats, err := st.EncodeDeltaTo(&buf, base, 2, 9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dirty != 0 {
		t.Fatalf("stats %+v, want 0 dirty", stats)
	}
	d, err := DecodeDeltaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	if err := got.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got.Info.Step != 11 || got.IoletRho[0] != 2.5 || !equalBits(got.F, base.F) {
		t.Fatal("empty-dirty delta mis-applied")
	}
}

// TestDeltaRejectsStaleStep pins the monotonicity guard on both ends:
// encoding a non-advancing delta fails, and so does applying one — the
// defense against replaying a stale chain member whose CRC happens to
// line up.
func TestDeltaRejectsStaleStep(t *testing.T) {
	base := deltaBaseState(18, 3, 2)
	st := base.Clone() // same step
	var buf bytes.Buffer
	if _, err := st.EncodeDeltaTo(&buf, base, 1, 0, 4, nil); err == nil {
		t.Fatal("encoded a delta that does not advance the step")
	}
	st.Info.Step = 11
	buf.Reset()
	if _, err := st.EncodeDeltaTo(&buf, base, 1, 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDeltaBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ahead := base.Clone()
	ahead.Info.Step = 11 // already at the delta's target step
	if err := ahead.ApplyDelta(d); err == nil {
		t.Fatal("applied a delta that does not advance the state")
	}
	other := deltaBaseState(18, 4, 2) // wrong shape
	if err := other.ApplyDelta(d); err == nil {
		t.Fatal("applied a delta with a mismatched shape")
	}
}

// TestDeltaRejectsBitFlips sweeps a delta record (sweepBitFlips), then
// truncations of it.
func TestDeltaRejectsBitFlips(t *testing.T) {
	data := tinyDelta(t)
	sweepBitFlips(t, data,
		func(b []byte) error { _, err := VerifyDeltaCheckpointBytes(b); return err },
		func(b []byte) error { _, err := DecodeDeltaBytes(b); return err })
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := VerifyDeltaCheckpointBytes(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes verified", cut)
		}
	}
}

// bigDeltaHeader returns a header-only record whose shape passes
// validation but claims a multi-gigabyte dirty payload.
func bigDeltaHeader() []byte {
	var buf bytes.Buffer
	for _, v := range []uint64{deltaMagic, 1, maxCheckpointSites, 64, 0, 1, 0, 256, uint64(maxCheckpointSites / 256)} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestDeltaBigHeaderFailsFast mirrors the full-format hardening test:
// allocations must be bounded by the actual input, never by header
// claims.
func TestDeltaBigHeaderFailsFast(t *testing.T) {
	data := bigDeltaHeader()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := DecodeDeltaBytes(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header-only big delta decoded successfully")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("decoding a header-only big delta allocated %d bytes", alloc)
	}
}

// tinyDelta returns a small valid delta record for the fuzz corpus.
func tinyDelta(t testing.TB) []byte {
	t.Helper()
	base := deltaBaseState(18, 3, 2)
	st := base.Clone()
	st.Info.Step = 11
	st.F[1] += 1
	st.F[17*3] += 1 // short last tile
	var buf bytes.Buffer
	if _, err := st.EncodeDeltaTo(&buf, base, 1, 7, 4, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzVerifyDeltaCheckpoint drives the delta decoder with arbitrary
// bytes. Properties: never panic, allocations bounded by input length,
// and on acceptance the record is canonical — rebuilding the stream
// from the decoded fields reproduces the input bit-exactly, and the
// tile list is strictly increasing and in range.
func FuzzVerifyDeltaCheckpoint(f *testing.F) {
	valid := tinyDelta(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-9])   // truncated mid-floats
	f.Add(valid[:deltaHeaderLen]) // header only
	f.Add(bigDeltaHeader())       // plausible shape, no body
	f.Add(append(valid, 0))       // trailing garbage
	f.Add(tinyCheckpoint(f))      // full-format record: wrong magic
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := VerifyDeltaCheckpointBytes(data)
		d, derr := DecodeDeltaBytes(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("verify and decode disagree: %v vs %v", err, derr)
		}
		if err != nil {
			return
		}
		if d.DeltaInfo != info {
			t.Fatalf("decode header %+v != verify header %+v", d.DeltaInfo, info)
		}
		if len(d.TileIdx) != info.DirtyTiles {
			t.Fatalf("decoded %d tiles, header claims %d", len(d.TileIdx), info.DirtyTiles)
		}
		tiles := NumDeltaTiles(info.Info.Sites, info.TileSites)
		prev := -1
		for _, ti := range d.TileIdx {
			if ti <= prev || ti >= tiles {
				t.Fatalf("tile list %v not strictly increasing in [0,%d)", d.TileIdx, tiles)
			}
			prev = ti
		}
		if got := reencodeDelta(d); !bytes.Equal(got, data) {
			t.Fatalf("accepted delta does not re-encode canonically (%d vs %d bytes)",
				len(got), len(data))
		}
	})
}
