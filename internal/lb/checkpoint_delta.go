package lb

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Delta checkpoints make durability cost scale with *change* instead of
// domain size: the global site range is cut into fixed-size tiles, and
// a delta record ("lbcd") stores only the tiles whose populations
// differ bit-wise from the previous persisted state — quiescent tiles
// (bit-stable flow, regions a steering change never reached) skip the
// encode AND the CRC. Records chain off a full "lbcq" checkpoint via
// the predecessor's CRC64 trailer, so a chain replays to a bit-exact
// state or fails verification; it can never silently mix generations.
//
// The layout and the chain/compaction rules live in
// docs/CHECKPOINT_FORMAT.md next to the full format.

// deltaMagic identifies a delta checkpoint record. Like the full
// format, the magic IS the version: incompatible layout changes must
// mint a new one.
const deltaMagic = 0x6c626364 // "lbcd"

// deltaHeaderLen is the fixed delta header: 9 little-endian uint64s
// (magic, step, sites, q, iolets, seq, prevCRC, tileSites, dirtyTiles).
const deltaHeaderLen = 9 * 8

// DefaultDeltaTileSites is the dirty-tracking granularity the service
// uses: sites per tile in the fixed partition of the global site range.
// Small enough that a localized change keeps a delta small, large
// enough that the per-tile index overhead stays negligible.
const DefaultDeltaTileSites = 256

// DeltaInfo is the parsed delta record header plus the record's own
// CRC (the chain identity its successor must name as PrevCRC).
type DeltaInfo struct {
	// Info describes the *target* state: the step the delta advances the
	// chain to, over the same domain shape as the base checkpoint.
	Info CheckpointInfo
	// Seq is the 1-based position in the chain after the full base.
	Seq uint64
	// PrevCRC is the CRC64 trailer of the predecessor record: the full
	// checkpoint for Seq 1, the previous delta otherwise.
	PrevCRC uint64
	// TileSites is the partition granularity; DirtyTiles how many tile
	// records the body carries.
	TileSites  int
	DirtyTiles int
	// CRC is this record's own trailer.
	CRC uint64
}

// CheckpointDelta is a fully decoded delta record: the header plus the
// replicated iolet densities and the dirty tiles' populations.
type CheckpointDelta struct {
	DeltaInfo
	IoletRho []float64
	// TileIdx holds the dirty tile indices in strictly increasing
	// order; TileF the concatenated per-tile population payloads, in
	// the same order (tile t covers tileLen(t)*Q floats).
	TileIdx []int
	TileF   []float64
}

// NumDeltaTiles returns how many tiles of tileSites sites cover n
// global sites.
func NumDeltaTiles(n, tileSites int) int {
	return (n + tileSites - 1) / tileSites
}

// deltaTileLen is the site count of tile t (the last tile may be
// short).
func deltaTileLen(t, sites, tileSites int) int {
	lo := t * tileSites
	hi := lo + tileSites
	if hi > sites {
		hi = sites
	}
	return hi - lo
}

// DirtyTiles appends to dst the indices of tiles whose populations in
// st differ from base, comparing float bit patterns (exact, NaN-safe:
// a restore must be bit-identical, not merely numerically close). The
// two states must share a shape. dst is reused across checkpoints so
// steady-state dirty tracking allocates nothing.
func (st *CheckpointState) DirtyTiles(base *CheckpointState, tileSites int, dst []int) ([]int, error) {
	if err := sameShape(st, base); err != nil {
		return dst, err
	}
	if tileSites <= 0 {
		return dst, fmt.Errorf("lb: delta tile size %d out of range", tileSites)
	}
	q := st.Info.Q
	tiles := NumDeltaTiles(st.Info.Sites, tileSites)
	for t := 0; t < tiles; t++ {
		lo := t * tileSites * q
		hi := lo + deltaTileLen(t, st.Info.Sites, tileSites)*q
		if !equalBits(st.F[lo:hi], base.F[lo:hi]) {
			dst = append(dst, t)
		}
	}
	return dst, nil
}

// equalBits compares float64 slices by bit pattern.
func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameShape(st, base *CheckpointState) error {
	if st.Info.Sites != base.Info.Sites || st.Info.Q != base.Info.Q || st.Info.Iolets != base.Info.Iolets {
		return fmt.Errorf("lb: delta shape mismatch (%d sites Q=%d %d iolets vs base %d sites Q=%d %d iolets)",
			st.Info.Sites, st.Info.Q, st.Info.Iolets,
			base.Info.Sites, base.Info.Q, base.Info.Iolets)
	}
	return nil
}

// DeltaStats reports what one EncodeDeltaTo wrote.
type DeltaStats struct {
	// Tiles is the partition size; Dirty how many tiles were encoded.
	Tiles, Dirty int
	// Bytes is the full record length; CRC its trailer — the PrevCRC
	// the next record in the chain must carry.
	Bytes int
	CRC   uint64
}

// EncodeDeltaTo writes a delta record advancing the chain from base
// (the previously persisted state, whose record CRC is prevCRC) to st.
// dirty is the tile list a prior DirtyTiles(base, ...) computed —
// callers compute it first so a too-dirty delta can be abandoned for a
// full checkpoint before any encoding happens; nil means "compute here".
// The iolet densities are always stored in full (steering state, a few
// floats). seq is the record's 1-based chain position.
func (st *CheckpointState) EncodeDeltaTo(w io.Writer, base *CheckpointState, seq uint64, prevCRC uint64, tileSites int, dirty []int) (DeltaStats, error) {
	if err := sameShape(st, base); err != nil {
		return DeltaStats{}, err
	}
	if st.Info.Step <= base.Info.Step {
		return DeltaStats{}, fmt.Errorf("lb: delta step %d does not advance base step %d",
			st.Info.Step, base.Info.Step)
	}
	if seq == 0 {
		return DeltaStats{}, fmt.Errorf("lb: delta seq must be >= 1")
	}
	if dirty == nil {
		var err error
		if dirty, err = st.DirtyTiles(base, tileSites, nil); err != nil {
			return DeltaStats{}, err
		}
	}
	ci := st.Info
	q := ci.Q
	n := deltaHeaderLen + 8*len(st.IoletRho) + 8
	for _, t := range dirty {
		n += 8 + 8*deltaTileLen(t, ci.Sites, tileSites)*q
	}
	sum, err := writeRecord(w, n, func(b []byte) []byte {
		b = appendWords(b, deltaMagic, uint64(ci.Step), uint64(ci.Sites), uint64(q), uint64(len(st.IoletRho)),
			seq, prevCRC, uint64(tileSites), uint64(len(dirty)))
		b = appendF64s(b, st.IoletRho)
		for _, t := range dirty {
			lo := t * tileSites * q
			b = appendWords(b, uint64(t))
			b = appendF64s(b, st.F[lo:lo+deltaTileLen(t, ci.Sites, tileSites)*q])
		}
		return b
	})
	if err != nil {
		return DeltaStats{}, fmt.Errorf("lb: delta write: %w", err)
	}
	return DeltaStats{
		Tiles: NumDeltaTiles(ci.Sites, tileSites),
		Dirty: len(dirty),
		Bytes: n,
		CRC:   sum,
	}, nil
}

// CheckpointCRC returns the CRC64 trailer of an encoded checkpoint or
// delta record — the chain identity a successor delta names as
// PrevCRC. The caller must have verified data already; this only reads
// the last eight bytes.
func CheckpointCRC(data []byte) (uint64, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("lb: record too short for a crc trailer (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint64(data[len(data)-8:]), nil
}

// VerifyDeltaCheckpointBytes checks a delta record in place — header
// sanity, an admissible length, the CRC trailer, then the tile indices
// (strictly increasing, in range, each payload inside the record, no
// bytes left over) — and reports its header. It decodes no floats and
// allocates nothing on success, and it accepts exactly what
// DecodeDeltaBytes accepts. The store's chain verification and the
// fuzzer drive this.
func VerifyDeltaCheckpointBytes(data []byte) (DeltaInfo, error) {
	di, err := parseHeader(data, deltaMagic)
	if err != nil {
		return DeltaInfo{}, err
	}
	if di.CRC, err = checkTrailer(data); err != nil {
		return DeltaInfo{}, err
	}
	tiles := NumDeltaTiles(di.Info.Sites, di.TileSites)
	end := len(data) - 8
	at := deltaHeaderLen + 8*di.Info.Iolets
	prev := -1
	for i := 0; i < di.DirtyTiles; i++ {
		t := int(binary.LittleEndian.Uint64(data[at:]))
		at += 8
		if t <= prev || t >= tiles {
			return DeltaInfo{}, fmt.Errorf("lb: delta tile index %d out of order or range (tiles=%d)", t, tiles)
		}
		n := deltaTileLen(t, di.Info.Sites, di.TileSites) * di.Info.Q
		if at+8*n > end {
			return DeltaInfo{}, fmt.Errorf("lb: delta tile %d overruns the record", t)
		}
		at += 8 * n
		prev = t
	}
	if at != end {
		return DeltaInfo{}, fmt.Errorf("lb: delta record has %d trailing bytes", end-at)
	}
	return di, nil
}

// DecodeDeltaBytes verifies one delta record and decodes it. Each
// array is allocated once, sized from the length the header was
// checked against, and only after every check has passed, so a
// corrupted header cannot commit memory.
func DecodeDeltaBytes(data []byte) (*CheckpointDelta, error) {
	di, err := VerifyDeltaCheckpointBytes(data)
	if err != nil {
		return nil, err
	}
	at := deltaHeaderLen + 8*di.Info.Iolets
	d := &CheckpointDelta{
		DeltaInfo: di,
		IoletRho:  make([]float64, di.Info.Iolets),
		TileIdx:   make([]int, di.DirtyTiles),
		// What follows the iolets is one index word per tile, then
		// floats, then the trailer.
		TileF: make([]float64, (len(data)-at-8)/8-di.DirtyTiles),
	}
	getF64s(d.IoletRho, data[deltaHeaderLen:])
	off := 0
	for i := range d.TileIdx {
		t := int(binary.LittleEndian.Uint64(data[at:]))
		n := deltaTileLen(t, di.Info.Sites, di.TileSites) * di.Info.Q
		d.TileIdx[i] = t
		getF64s(d.TileF[off:off+n], data[at+8:])
		at += 8 + 8*n
		off += n
	}
	return d, nil
}

// ApplyDelta advances st (the chain state so far) by one decoded delta
// record in place: dirty tiles and iolet densities are overwritten, the
// step moves forward. Chain linkage (PrevCRC against the predecessor's
// trailer) is the caller's to enforce — this checks only shape and step
// monotonicity, the invariants that keep a mis-linked apply from
// corrupting silently.
func (st *CheckpointState) ApplyDelta(d *CheckpointDelta) error {
	if st.Info.Sites != d.Info.Sites || st.Info.Q != d.Info.Q || st.Info.Iolets != d.Info.Iolets {
		return fmt.Errorf("lb: delta is for %d sites Q=%d %d iolets, state has %d sites Q=%d %d iolets",
			d.Info.Sites, d.Info.Q, d.Info.Iolets, st.Info.Sites, st.Info.Q, st.Info.Iolets)
	}
	if d.Info.Step <= st.Info.Step {
		return fmt.Errorf("lb: delta step %d does not advance state step %d", d.Info.Step, st.Info.Step)
	}
	q := st.Info.Q
	at := 0
	for _, t := range d.TileIdx {
		n := deltaTileLen(t, st.Info.Sites, d.TileSites) * q
		copy(st.F[t*d.TileSites*q:], d.TileF[at:at+n])
		at += n
	}
	copy(st.IoletRho, d.IoletRho)
	st.Info.Step = d.Info.Step
	return nil
}

// Clone deep-copies a state — the writer keeps the last persisted
// state this way when it cannot retain the delivered buffer itself.
func (st *CheckpointState) Clone() *CheckpointState {
	return &CheckpointState{
		Info:     st.Info,
		IoletRho: append([]float64(nil), st.IoletRho...),
		F:        append([]float64(nil), st.F...),
	}
}
