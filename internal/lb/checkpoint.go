package lb

import (
	"bufio"
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
// for evolving it) is documented in docs/CHECKPOINT_FORMAT.md. Solver
// and Dist write the same global-site-major format, so a checkpoint
// taken by either restores into the other for the same domain.

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

// maxCheckpointSites bounds header-driven allocations so a corrupted
// header cannot make a reader allocate terabytes before the CRC check
// has a chance to reject it.
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

// writeCheckpoint emits the canonical stream: header and body (iolet
// densities then populations), both CRC-covered, then the CRC trailer.
func writeCheckpoint(w io.Writer, step int, ioletRho, f []float64, sites, q int) error {
	// bufio amortizes syscalls for real sinks; an in-memory buffer is
	// already its own buffer, and skipping the wrapper saves a full
	// extra copy of the population vector per checkpoint.
	var bw io.Writer
	var fl *bufio.Writer
	if mem, ok := w.(*bytes.Buffer); ok {
		bw = mem
	} else {
		fl = bufio.NewWriter(w)
		bw = fl
	}
	crc := crc64.New(crcTable)
	mw := io.MultiWriter(bw, crc)
	head := []uint64{
		checkpointMagic,
		uint64(step),
		uint64(sites),
		uint64(q),
		uint64(len(ioletRho)),
	}
	for _, v := range head {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("lb: checkpoint header: %w", err)
		}
	}
	// The float vectors stream through a fixed scratch chunk instead of
	// binary.Write, which would allocate a transient byte buffer the
	// size of the whole population vector per checkpoint.
	var scratch [4096]byte
	if err := writeF64s(mw, ioletRho, scratch[:]); err != nil {
		return fmt.Errorf("lb: checkpoint iolets: %w", err)
	}
	if err := writeF64s(mw, f, scratch[:]); err != nil {
		return fmt.Errorf("lb: checkpoint populations: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum64()); err != nil {
		return fmt.Errorf("lb: checkpoint crc: %w", err)
	}
	if fl != nil {
		return fl.Flush()
	}
	return nil
}

// writeF64s little-endian-encodes vals through the caller's scratch
// chunk (len a multiple of 8).
func writeF64s(w io.Writer, vals []float64, scratch []byte) error {
	per := len(scratch) / 8
	for at := 0; at < len(vals); at += per {
		end := at + per
		if end > len(vals) {
			end = len(vals)
		}
		n := 0
		for _, v := range vals[at:end] {
			binary.LittleEndian.PutUint64(scratch[n:], math.Float64bits(v))
			n += 8
		}
		if _, err := w.Write(scratch[:n]); err != nil {
			return err
		}
	}
	return nil
}

// readCheckpointHeader parses and sanity-checks the fixed header,
// leaving the reader positioned at the body. It also returns the raw
// header bytes so the body reader can fold them into the CRC.
func readCheckpointHeader(br *bufio.Reader) (CheckpointInfo, []byte, error) {
	raw := make([]byte, checkpointHeaderLen)
	if _, err := io.ReadFull(br, raw); err != nil {
		return CheckpointInfo{}, nil, fmt.Errorf("lb: restore header: %w", err)
	}
	if magic := binary.LittleEndian.Uint64(raw); magic != checkpointMagic {
		return CheckpointInfo{}, nil, fmt.Errorf("lb: not a checkpoint (magic %#x)", magic)
	}
	ci := CheckpointInfo{
		Step:   int(binary.LittleEndian.Uint64(raw[8:])),
		Sites:  int(binary.LittleEndian.Uint64(raw[16:])),
		Q:      int(binary.LittleEndian.Uint64(raw[24:])),
		Iolets: int(binary.LittleEndian.Uint64(raw[32:])),
	}
	if err := ci.validate(); err != nil {
		return CheckpointInfo{}, nil, err
	}
	return ci, raw, nil
}

// readCheckpointBody reads the iolet densities and populations the
// header describes and verifies the CRC trailer over header + body.
func readCheckpointBody(br *bufio.Reader, ci CheckpointInfo, rawHeader []byte) (iolets, f []float64, err error) {
	crc := crc64.New(crcTable)
	crc.Write(rawHeader)
	tr := io.TeeReader(br, crc)
	if iolets, err = readF64s(tr, ci.Iolets); err != nil {
		return nil, nil, fmt.Errorf("lb: restore iolets: %w", err)
	}
	if f, err = readF64s(tr, ci.Sites*ci.Q); err != nil {
		return nil, nil, fmt.Errorf("lb: restore populations: %w", err)
	}
	var trail [8]byte
	if _, err := io.ReadFull(br, trail[:]); err != nil {
		return nil, nil, fmt.Errorf("lb: restore crc: %w", err)
	}
	if got, want := crc.Sum64(), binary.LittleEndian.Uint64(trail[:]); got != want {
		return nil, nil, fmt.Errorf("lb: checkpoint corrupt (crc %#x, want %#x)", got, want)
	}
	return iolets, f, nil
}

// readF64s decodes count little-endian float64s from r through a
// bounded scratch chunk, growing the result only as bytes actually
// arrive. The header's claimed shape therefore sizes nothing up front:
// a corrupted-but-plausible header over a truncated stream fails at
// EOF after one chunk, where handing the count straight to make (or
// binary.Read, which shadow-allocates count*8 bytes) would commit
// gigabytes before the CRC could object. The fault-injection harness
// caught this on bit-flipped header sweeps.
func readF64s(r io.Reader, count int) ([]float64, error) {
	const per = 8192 // floats per read: 64 KiB chunks
	var scratch [per * 8]byte
	cap0 := count
	if cap0 > per {
		cap0 = per
	}
	out := make([]float64, 0, cap0)
	for len(out) < count {
		n := count - len(out)
		if n > per {
			n = per
		}
		if _, err := io.ReadFull(r, scratch[:n*8]); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(scratch[i*8:])))
		}
	}
	return out, nil
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

// DecodeCheckpoint fully parses and CRC-verifies a checkpoint stream
// into its decoded state. Decode once, then install on each rank with
// Dist.RestoreState — parsing per rank would multiply the transient
// memory by the rank count.
func DecodeCheckpoint(r io.Reader) (*CheckpointState, error) {
	br := bufio.NewReader(r)
	ci, raw, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	iolets, f, err := readCheckpointBody(br, ci, raw)
	if err != nil {
		return nil, err
	}
	return &CheckpointState{Info: ci, IoletRho: iolets, F: f}, nil
}

// VerifyCheckpoint fully parses a checkpoint stream — header sanity,
// body, CRC — without needing a solver, and reports what it holds.
func VerifyCheckpoint(r io.Reader) (CheckpointInfo, error) {
	st, err := DecodeCheckpoint(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return st.Info, nil
}

// DecodeCheckpointBytes is DecodeCheckpoint for an in-memory stream,
// with one extra defence the reader form cannot have: the header's
// claimed shape must match the actual byte length exactly before any
// body buffer is allocated, so a corrupted size field fails fast
// instead of attempting a huge allocation. The durable job store
// loads every checkpoint through this path.
func DecodeCheckpointBytes(data []byte) (*CheckpointState, error) {
	ci, _, err := readCheckpointHeader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		return nil, err
	}
	if want := ci.EncodedLen(); len(data) != want {
		return nil, fmt.Errorf("lb: checkpoint is %d bytes, header implies %d", len(data), want)
	}
	return DecodeCheckpoint(bytes.NewReader(data))
}

// VerifyCheckpointBytes is DecodeCheckpointBytes when only validity
// and the header are wanted.
func VerifyCheckpointBytes(data []byte) (CheckpointInfo, error) {
	st, err := DecodeCheckpointBytes(data)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return st.Info, nil
}

// Checkpoint writes the solver state (step counter, iolet settings,
// populations) so a later Restore continues bit-exactly.
func (s *Solver) Checkpoint(w io.Writer) error {
	return writeCheckpoint(w, s.step, s.ioletRho, s.f, s.n, s.M.Q)
}

// Restore loads a checkpoint written by Checkpoint into this solver.
// The domain (site count, model) must match; the CRC must verify.
func (s *Solver) Restore(r io.Reader) error {
	br := bufio.NewReader(r)
	ci, raw, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if err := s.checkShape(ci, s.n); err != nil {
		return err
	}
	iolets, f, err := readCheckpointBody(br, ci, raw)
	if err != nil {
		return err
	}
	// Only commit after full validation.
	s.step = ci.Step
	copy(s.ioletRho, iolets)
	copy(s.f, f)
	return nil
}

// EncodeTo writes the canonical checkpoint stream for a decoded (or
// gathered) state — the off-critical-path half of an async checkpoint:
// a writer goroutine encodes and persists what GatherState captured
// while the solver keeps stepping.
func (st *CheckpointState) EncodeTo(w io.Writer) error {
	return writeCheckpoint(w, st.Info.Step, st.IoletRho, st.F, st.Info.Sites, st.Info.Q)
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
// carry the read-only sharing convention DecodeCheckpoint states do.
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

// Checkpoint gathers the distributed state to rank 0 and writes it in
// the same global-site-major format Solver.Checkpoint uses, so a Dist
// checkpoint restores into a Solver (and vice versa) for the same
// domain. It is collective: every rank must call it at the same step;
// only rank 0 writes to w (other ranks may pass nil) and only rank 0
// can return an error. The synchronous convenience form of
// GatherState + EncodeTo.
func (d *Dist) Checkpoint(w io.Writer) error {
	st := d.GatherState(nil)
	if st == nil {
		return nil // non-root
	}
	return st.EncodeTo(w)
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

// Restore loads a global checkpoint stream into this rank's
// subdomain. When many ranks restore the same bytes, decode once with
// DecodeCheckpoint and share the state via RestoreState instead.
func (d *Dist) Restore(r io.Reader) error {
	st, err := DecodeCheckpoint(r)
	if err != nil {
		return err
	}
	return d.RestoreState(st)
}
