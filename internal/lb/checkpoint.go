package lb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// Checkpointing addresses the §III resiliency challenge: at exascale,
// mean time between failures drops below job length, so the solver
// state must be restartable. The format stores the full population
// vector with a CRC so silent corruption is detected on restore.
//
// The binary layout (header, body, CRC64-ECMA trailer, and the rules
// for evolving it) is documented in docs/CHECKPOINT_FORMAT.md. One
// codec over bytes serves both record kinds, full ("lbcq") and delta
// ("lbcd", checkpoint_delta.go): a record is appended into a slice,
// verified in place, and decoded only once every check has passed.
// States are global-site-major whatever rank count gathered them, so a
// checkpoint restores into any partition of the same domain.

// checkpointMagic identifies a checkpoint stream. Incompatible layout
// changes must change this value — there is no version field; the
// magic IS the version (see docs/CHECKPOINT_FORMAT.md). "lbcq"
// superseded "lbcp" (0x6c626370) when the CRC's coverage was extended
// over the header, so a corrupted step/shape field can no longer
// verify.
const checkpointMagic = 0x6c626371 // "lbcq"

// checkpointHeaderLen is the fixed header size: 5 little-endian
// uint64s (magic, step, sites, q, iolets).
const checkpointHeaderLen = 5 * 8

var crcTable = crc64.MakeTable(crc64.ECMA)

// CheckpointInfo is the parsed checkpoint header: the solver step the
// state was captured at and the domain shape it belongs to.
type CheckpointInfo struct {
	// Step is the completed-steps counter at capture time.
	Step int
	// Sites is the global fluid-site count; Q the lattice model size.
	Sites int
	Q     int
	// Iolets is the number of in/outlet boundary densities stored.
	Iolets int
}

// maxCheckpointSites bounds the shape a header may claim, so the
// lengths computed from it cannot overflow.
const maxCheckpointSites = 1 << 28

func (ci CheckpointInfo) validate() error {
	if ci.Step < 0 || ci.Sites <= 0 || ci.Q <= 0 || ci.Iolets < 0 {
		return fmt.Errorf("lb: checkpoint header out of range (step %d, %d sites, Q=%d, %d iolets)",
			ci.Step, ci.Sites, ci.Q, ci.Iolets)
	}
	if ci.Sites > maxCheckpointSites || ci.Q > 64 || ci.Iolets > 1<<16 {
		return fmt.Errorf("lb: checkpoint header implausibly large (%d sites, Q=%d, %d iolets)",
			ci.Sites, ci.Q, ci.Iolets)
	}
	return nil
}

// EncodedLen returns the exact byte length of a checkpoint stream
// with this header: header, body (iolets + populations), CRC trailer.
// Loaders use it to reject a corrupted shape before allocating.
func (ci CheckpointInfo) EncodedLen() int {
	return checkpointHeaderLen + 8*(ci.Iolets+ci.Sites*ci.Q) + 8
}

// parseHeader is the one header parser of both record kinds. It reads
// the header words of a record with the given magic (checkpointMagic
// or deltaMagic) straight from data, checks them, and checks that
// len(data) is a length the header implies, so every offset computed
// from the header lies inside data. A full record sets only Info.
func parseHeader(data []byte, magic uint64) (DeltaInfo, error) {
	kind, headerLen := "checkpoint", checkpointHeaderLen
	if magic == deltaMagic {
		kind, headerLen = "delta checkpoint", deltaHeaderLen
	}
	if len(data) < headerLen+8 {
		return DeltaInfo{}, fmt.Errorf("lb: %s record too short (%d bytes)", kind, len(data))
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
	if m := word(0); m != magic {
		return DeltaInfo{}, fmt.Errorf("lb: not a %s (magic %#x)", kind, m)
	}
	di := DeltaInfo{Info: CheckpointInfo{
		Step:   int(word(1)),
		Sites:  int(word(2)),
		Q:      int(word(3)),
		Iolets: int(word(4)),
	}}
	if err := di.Info.validate(); err != nil {
		return DeltaInfo{}, err
	}
	if magic == checkpointMagic {
		if want := di.Info.EncodedLen(); len(data) != want {
			return DeltaInfo{}, fmt.Errorf("lb: checkpoint is %d bytes, header implies %d", len(data), want)
		}
		return di, nil
	}
	di.Seq, di.PrevCRC = word(5), word(6)
	di.TileSites, di.DirtyTiles = int(word(7)), int(word(8))
	if di.Seq == 0 {
		return DeltaInfo{}, fmt.Errorf("lb: delta seq 0 (chain positions are 1-based)")
	}
	// A tile size above the site count is legal (one short tile covers
	// the whole domain — small domains under the default granularity);
	// only nonsense values are rejected.
	if di.TileSites <= 0 || di.TileSites > maxCheckpointSites {
		return DeltaInfo{}, fmt.Errorf("lb: delta tile size %d out of range", di.TileSites)
	}
	tiles := NumDeltaTiles(di.Info.Sites, di.TileSites)
	if di.DirtyTiles < 0 || di.DirtyTiles > tiles {
		return DeltaInfo{}, fmt.Errorf("lb: delta claims %d dirty tiles of %d", di.DirtyTiles, tiles)
	}
	// The record length is fully determined by the header except for
	// whether the (possibly short) last tile is among the dirty set, so
	// both admissible lengths are accepted here; the tile walk settles
	// which one the record is.
	q := di.Info.Q
	wantFull := deltaHeaderLen + 8*di.Info.Iolets + 8 + di.DirtyTiles*(8+8*di.TileSites*q)
	lastLen := deltaTileLen(tiles-1, di.Info.Sites, di.TileSites)
	wantShort := wantFull - 8*(di.TileSites-lastLen)*q
	if len(data) != wantFull && !(di.DirtyTiles > 0 && len(data) == wantShort) {
		return DeltaInfo{}, fmt.Errorf("lb: delta record is %d bytes, header implies %d (or %d with the tail tile)",
			len(data), wantFull, wantShort)
	}
	return di, nil
}

// checkTrailer is the one trailer check of both record kinds: the last
// eight bytes must be the CRC64-ECMA of everything before them. It
// returns the trailer, the record's chain identity.
func checkTrailer(data []byte) (uint64, error) {
	n := len(data)
	want := binary.LittleEndian.Uint64(data[n-8:])
	if got := crc64.Checksum(data[:n-8], crcTable); got != want {
		return 0, fmt.Errorf("lb: checkpoint record corrupt (crc %#x, want %#x)", got, want)
	}
	return want, nil
}

// writeRecord is the one encoder of both record kinds. appendBody
// appends the header words and the body to the slice it is given;
// writeRecord adds the CRC64 trailer over what it appended and hands
// the record to w in one Write. n is the record's length: a
// *bytes.Buffer grows to hold it and the record is appended straight
// into its spare capacity, so a recycled buffer allocates nothing (its
// Write then copies the record onto itself, which moves no bytes); any
// other writer gets a slice of n bytes.
func writeRecord(w io.Writer, n int, appendBody func([]byte) []byte) (uint64, error) {
	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(n)
		b = buf.AvailableBuffer()
	} else {
		b = make([]byte, 0, n)
	}
	b = appendBody(b)
	sum := crc64.Checksum(b, crcTable)
	_, err := w.Write(binary.LittleEndian.AppendUint64(b, sum))
	return sum, err
}

// appendWords appends little-endian uint64 words to b.
func appendWords(b []byte, ws ...uint64) []byte {
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// appendF64s appends the little-endian bit patterns of vs to b.
func appendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// getF64s fills dst from the little-endian float64s at the start of
// raw, which must hold at least len(dst) of them.
func getF64s(dst []float64, raw []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// CheckpointState is a fully decoded checkpoint: the header plus the
// replicated iolet densities and the global population vector. The
// arrays are read-only by convention, so one decoded state can be
// shared by every rank of a restore.
type CheckpointState struct {
	Info     CheckpointInfo
	IoletRho []float64
	F        []float64
}

// VerifyCheckpointBytes checks a full checkpoint record in place —
// magic, header sanity, the exact length the header implies, the CRC
// trailer — and reports its header. It decodes no floats and allocates
// nothing on success, and it accepts exactly what DecodeCheckpointBytes
// accepts.
func VerifyCheckpointBytes(data []byte) (CheckpointInfo, error) {
	di, err := parseHeader(data, checkpointMagic)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if _, err := checkTrailer(data); err != nil {
		return CheckpointInfo{}, err
	}
	return di.Info, nil
}

// DecodeCheckpointBytes verifies a full checkpoint record and decodes
// it into a state. Each array is allocated once, sized from the length
// the header was checked against, so a corrupted size field fails
// before anything is allocated. Decode once, then install on each rank
// with Dist.RestoreState — decoding per rank would multiply the memory
// by the rank count.
func DecodeCheckpointBytes(data []byte) (*CheckpointState, error) {
	ci, err := VerifyCheckpointBytes(data)
	if err != nil {
		return nil, err
	}
	st := &CheckpointState{
		Info:     ci,
		IoletRho: make([]float64, ci.Iolets),
		F:        make([]float64, ci.Sites*ci.Q),
	}
	getF64s(st.IoletRho, data[checkpointHeaderLen:])
	getF64s(st.F, data[checkpointHeaderLen+8*ci.Iolets:])
	return st, nil
}

// EncodeTo writes the canonical checkpoint stream for a decoded (or
// gathered) state — the off-critical-path half of an async checkpoint:
// a writer goroutine encodes and persists what GatherState captured
// while the solver keeps stepping.
func (st *CheckpointState) EncodeTo(w io.Writer) error {
	ci := st.Info
	_, err := writeRecord(w, ci.EncodedLen(), func(b []byte) []byte {
		b = appendWords(b, checkpointMagic, uint64(ci.Step), uint64(ci.Sites), uint64(ci.Q), uint64(len(st.IoletRho)))
		b = appendF64s(b, st.IoletRho)
		return appendF64s(b, st.F)
	})
	if err != nil {
		return fmt.Errorf("lb: checkpoint write: %w", err)
	}
	return nil
}

// GatherState collects the distributed solver state into st at rank 0,
// reusing st's arrays when they are already the right size (allocating
// otherwise; nil st is fine). It is collective: every rank must call
// it at the same step; non-root ranks pass nil and receive nil. This
// is the in-loop half of an async checkpoint — a memory-only gather
// with no encoding, CRC or I/O — and with a recycled st it allocates
// nothing. The root copies its own rows straight into st.F, one copy
// per run of consecutive global ids (a single one when it owns every
// site); other ranks pack theirs and send, and the root scatters only
// those. States filled here are private to the caller; they do not
// carry the read-only sharing convention decoded states do.
func (d *Dist) GatherState(st *CheckpointState) *CheckpointState {
	q := d.M.Q
	root := 0
	if d.Comm.Rank() != root {
		buf := d.pack(len(d.Owned) * (q + 1))
		for li, g := range d.Owned {
			at := li * (q + 1)
			buf[at] = float64(g)
			copy(buf[at+1:at+1+q], d.f[li*q:(li+1)*q])
		}
		d.Comm.GatherConsume(root, buf, nil)
		return nil
	}
	st = d.prepState(st)
	own := d.Owned
	for lo := 0; lo < len(own); {
		hi := lo + 1
		for hi < len(own) && own[hi] == own[hi-1]+1 {
			hi++
		}
		copy(st.F[own[lo]*q:(own[hi-1]+1)*q], d.f[lo*q:hi*q])
		lo = hi
	}
	d.stateOut = st.F
	// The root's own rows are already in place: it contributes nothing.
	d.Comm.GatherConsume(root, nil, d.consumeStateFn)
	d.stateOut = nil
	return st
}

// consumeState scatters one remote rank's packed rows into the state
// the root is gathering.
func (d *Dist) consumeState(_ int, p []float64) {
	q := d.M.Q
	f := d.stateOut
	for i := 0; i+q < len(p); i += q + 1 {
		g := int(p[i])
		copy(f[g*q:(g+1)*q], p[i+1:i+1+q])
	}
}

// prepState sizes st (allocating as needed) and fills header and iolet
// densities for a gather at the current step.
func (d *Dist) prepState(st *CheckpointState) *CheckpointState {
	n := d.Dom.NumSites()
	q := d.M.Q
	if st == nil {
		st = &CheckpointState{}
	}
	st.Info = CheckpointInfo{Step: d.step, Sites: n, Q: q, Iolets: len(d.ioletRho)}
	if len(st.F) != n*q {
		st.F = make([]float64, n*q)
	}
	if len(st.IoletRho) != len(d.ioletRho) {
		st.IoletRho = make([]float64, len(d.ioletRho))
	}
	copy(st.IoletRho, d.ioletRho)
	return st
}

// RestoreState installs a decoded global checkpoint into this rank's
// subdomain: the populations of the sites it owns, the replicated
// iolet densities, and the step counter. All ranks must call it with
// the same (shared, read-only) state before any rank steps.
func (d *Dist) RestoreState(st *CheckpointState) error {
	ci := st.Info
	if err := d.checkShape(ci, d.Dom.NumSites()); err != nil {
		return err
	}
	for li, g := range d.Owned {
		copy(d.f[li*ci.Q:(li+1)*ci.Q], st.F[g*ci.Q:(g+1)*ci.Q])
	}
	copy(d.ioletRho, st.IoletRho)
	d.step = ci.Step
	return nil
}
