package lb

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// tinyCheckpoint returns a minimal valid checkpoint stream (160
// bytes). The format carries its own shape, so nothing forces a real
// lattice: a 4-site Q=3 stream exercises exactly the decoder paths a
// 46 KB solver checkpoint would, and keeps fuzz inputs small enough
// that corpus minimization stays cheap.
func tinyCheckpoint(t testing.TB) []byte {
	t.Helper()
	return stateRecord(&CheckpointState{
		Info:     CheckpointInfo{Step: 7, Sites: 4, Q: 3, Iolets: 2},
		IoletRho: []float64{1.01, 0.99},
		F:        []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	})
}

// TestSolverCheckpointVerifies keeps the synthetic fuzz seed honest: a
// real solver checkpoint passes the same decoder.
func TestSolverCheckpointVerifies(t *testing.T) {
	dom := pipeDomain(t, 10, 2, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(7)
	info, err := VerifyCheckpointBytes(solverRecord(s))
	if err != nil || info.Step != 7 {
		t.Fatalf("real checkpoint: (%+v, %v)", info, err)
	}
}

// bigHeader returns a header-only stream whose shape passes validation
// but implies a multi-gigabyte body.
func bigHeader() []byte {
	var buf bytes.Buffer
	for _, v := range []uint64{checkpointMagic, 1, maxCheckpointSites, 64, 0} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestTruncatedBigHeaderFailsFast pins the decode hardening the chaos
// harness motivated: a truncated stream whose (plausible) header
// claims ~2^34 floats must fail on the length the header implies,
// before anything is sized from that claim.
func TestTruncatedBigHeaderFailsFast(t *testing.T) {
	data := bigHeader()
	for name, try := range map[string]func() error{
		"DecodeCheckpointBytes": func() error { _, err := DecodeCheckpointBytes(data); return err },
		"VerifyCheckpointBytes": func() error { _, err := VerifyCheckpointBytes(data); return err },
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := try()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a truncated big-header stream", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Fatalf("%s allocated %d bytes on a truncated big-header stream", name, alloc)
		}
	}
}

// sweepBitFlips flips one bit in every byte of a valid record in turn;
// the CRC covers the whole record, so verify and decode must each
// reject every copy.
func sweepBitFlips(t *testing.T, data []byte, verify, decode func([]byte) error) {
	t.Helper()
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x10
		if verify(bad) == nil {
			t.Fatalf("bit flip at byte %d/%d verified", i, len(data))
		}
		if decode(bad) == nil {
			t.Fatalf("bit flip at byte %d/%d decoded", i, len(data))
		}
	}
}

// TestCheckpointRejectsBitFlips sweeps a full record; the delta twin is
// TestDeltaRejectsBitFlips.
func TestCheckpointRejectsBitFlips(t *testing.T) {
	sweepBitFlips(t, tinyCheckpoint(t),
		func(b []byte) error { _, err := VerifyCheckpointBytes(b); return err },
		func(b []byte) error { _, err := DecodeCheckpointBytes(b); return err })
}

// FuzzVerifyCheckpoint drives the checkpoint codec with arbitrary
// bytes. Properties: never panic, never allocate past a truncated
// stream's actual length (enforced by the fail-fast test above and the
// fuzzer's resource limits), the verifier accepts exactly what the
// decoder accepts, and on acceptance the decoded state re-encodes to
// the exact input — the format is canonical, so accept implies
// bit-exact round trip.
func FuzzVerifyCheckpoint(f *testing.F) {
	valid := tinyCheckpoint(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-9])        // body truncated mid-floats
	f.Add(valid[:checkpointHeaderLen]) // header only
	f.Add(bigHeader())                 // plausible shape, no body
	f.Add(append(valid, 0))            // trailing garbage
	f.Add([]byte(strings.Repeat("lbcq", 12)))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := VerifyCheckpointBytes(data)
		st, derr := DecodeCheckpointBytes(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("verify and decode disagree: %v vs %v", err, derr)
		}
		if err != nil {
			return
		}
		if st.Info != info {
			t.Fatalf("decoded header %+v != verified header %+v", st.Info, info)
		}
		if len(st.IoletRho) != info.Iolets || len(st.F) != info.Sites*info.Q {
			t.Fatalf("decoded shape (%d iolets, %d floats) disagrees with header %+v",
				len(st.IoletRho), len(st.F), info)
		}
		if out := stateRecord(st); !bytes.Equal(out, data) {
			t.Fatalf("accepted checkpoint does not re-encode canonically (%d vs %d bytes)",
				len(out), len(data))
		}
	})
}
