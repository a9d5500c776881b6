// Package gmy implements the two-level sparse geometry file format of
// section IV-B: "HemeLB reads data from a two-level file format, where
// coarse grained blocks are described solely by the volume of fluid
// within each one. This data is used to perform an initial approximate
// load balance. A subset of the cores then read the detailed geometry
// data and distribute the data to those cores that require it."
//
// Level 1 is a block table giving only the fluid-site count and payload
// extent of each 8³ block; level 2 is a zlib-compressed per-block
// payload of site records (position, link classification, wall
// normals). InitialBalance consumes only level 1; ParallelRead lets a
// configurable subset of ranks decode level 2 and redistribute.
package gmy

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// Magic identifies a gmy stream; Version is bumped on layout changes.
const (
	Magic   = 0x676d7932 // "gmy2"
	Version = 1
)

// Header is the fixed-size portion of the file.
type Header struct {
	Dims      vec.I3
	Origin    vec.V3
	H         float64
	BlockSize int
	ModelQ    int
	Iolets    []geometry.Iolet
	// BlockFluid[b] is the fluid-site count of block b — the coarse
	// level used for the initial approximate balance.
	BlockFluid []int32
	// blockLen[b] is the compressed payload length of block b.
	blockLen []int32
}

// BlockDims returns the block-grid extent implied by Dims.
func (h *Header) BlockDims() vec.I3 {
	bs := h.BlockSize
	return vec.I3{
		X: (h.Dims.X + bs - 1) / bs,
		Y: (h.Dims.Y + bs - 1) / bs,
		Z: (h.Dims.Z + bs - 1) / bs,
	}
}

// NumBlocks returns the total block count.
func (h *Header) NumBlocks() int {
	bd := h.BlockDims()
	return bd.X * bd.Y * bd.Z
}

func writeF64(w io.Writer, vs ...float64) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeU32(w io.Writer, vs ...uint32) error {
	for _, v := range vs {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// maxIolets is how many iolets a link record can name: its iolet byte
// holds the index, and 255 means none.
const maxIolets = 255

// Write serialises a voxelised domain. Layout: header, iolets, block
// table (fluid count + compressed length per block), then the
// compressed block payloads in block-id order. A domain the format
// cannot hold — a site coordinate past 65 535, more iolets than a link
// record can name, a link naming one it cannot — is an error before
// anything is written. The link
// distances come from the domain's distance table, computed here on a
// voxelised domain's first write.
func Write(w io.Writer, d *geometry.Domain) error {
	if err := encodable(d); err != nil {
		return err
	}
	if err := writeU32(w, Magic, Version,
		uint32(d.Dims.X), uint32(d.Dims.Y), uint32(d.Dims.Z),
		uint32(geometry.BlockSize), uint32(d.Model.Q), uint32(len(d.Iolets))); err != nil {
		return fmt.Errorf("gmy: header: %w", err)
	}
	if err := writeF64(w, d.Origin.X, d.Origin.Y, d.Origin.Z, d.H); err != nil {
		return fmt.Errorf("gmy: header: %w", err)
	}
	for _, io := range d.Iolets {
		if err := writeF64(w, io.Center.X, io.Center.Y, io.Center.Z,
			io.Normal.X, io.Normal.Y, io.Normal.Z, io.Radius, io.Pressure); err != nil {
			return fmt.Errorf("gmy: iolet: %w", err)
		}
		flag := uint32(0)
		if io.IsInlet {
			flag = 1
		}
		if err := writeU32(w, flag); err != nil {
			return fmt.Errorf("gmy: iolet: %w", err)
		}
	}
	// Group sites by block.
	nb := d.NumBlocks()
	blockSites := make([][]int, nb)
	for i, s := range d.Sites {
		b := d.BlockID(geometry.BlockOf(s.Pos))
		blockSites[b] = append(blockSites[b], i)
	}
	payloads := make([][]byte, nb)
	dists := d.LinkDists()
	for b := 0; b < nb; b++ {
		if len(blockSites[b]) == 0 {
			continue
		}
		var raw bytes.Buffer
		for _, si := range blockSites[b] {
			encodeSite(&raw, d, si, dists)
		}
		var comp bytes.Buffer
		zw := zlib.NewWriter(&comp)
		if _, err := zw.Write(raw.Bytes()); err != nil {
			return fmt.Errorf("gmy: compress block %d: %w", b, err)
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("gmy: compress block %d: %w", b, err)
		}
		payloads[b] = comp.Bytes()
	}
	// Block table.
	for b := 0; b < nb; b++ {
		if err := writeU32(w, uint32(len(blockSites[b])), uint32(len(payloads[b]))); err != nil {
			return fmt.Errorf("gmy: block table: %w", err)
		}
	}
	for b := 0; b < nb; b++ {
		if len(payloads[b]) == 0 {
			continue
		}
		if _, err := w.Write(payloads[b]); err != nil {
			return fmt.Errorf("gmy: block payload %d: %w", b, err)
		}
	}
	return nil
}

// encodable rejects a domain whose records would decode to another:
// positions are u16 and a link's iolet byte names 0..254.
func encodable(d *geometry.Domain) error {
	if len(d.Iolets) > maxIolets {
		return fmt.Errorf("gmy: %d iolets, a link record names at most %d", len(d.Iolets), maxIolets)
	}
	for i := range d.Sites {
		s := &d.Sites[i]
		if max(s.Pos.X, s.Pos.Y, s.Pos.Z) > math.MaxUint16 {
			return fmt.Errorf("gmy: site %v has a coordinate past %d", s.Pos, math.MaxUint16)
		}
		for q, l := range s.Links {
			if l.Type != geometry.LinkFluid && (l.Iolet < -1 || l.Iolet >= maxIolets) {
				return fmt.Errorf("gmy: link %d of site %v names iolet %d", q+1, s.Pos, l.Iolet)
			}
		}
	}
	return nil
}

// encodeSite appends one site record: position (3×u16), flags (u8),
// wall normal (3×f32, wall sites only), then per non-rest direction a
// link record: type u8 plus, for non-fluid links, dist f32 (from
// dists, the domain's distance table) and iolet u8.
func encodeSite(buf *bytes.Buffer, d *geometry.Domain, si int, dists []float64) {
	s := &d.Sites[si]
	row := dists[si*len(s.Links) : (si+1)*len(s.Links)]
	var tmp [4]byte
	put16 := func(v int) {
		binary.LittleEndian.PutUint16(tmp[:2], uint16(v))
		buf.Write(tmp[:2])
	}
	put16(s.Pos.X)
	put16(s.Pos.Y)
	put16(s.Pos.Z)
	buf.WriteByte(byte(s.Flags))
	if s.Flags&geometry.FlagWall != 0 {
		putF32 := func(v float64) {
			binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(float32(v)))
			buf.Write(tmp[:4])
		}
		putF32(s.WallNormal.X)
		putF32(s.WallNormal.Y)
		putF32(s.WallNormal.Z)
	}
	for i, l := range s.Links {
		buf.WriteByte(byte(l.Type))
		if l.Type == geometry.LinkFluid {
			continue
		}
		binary.LittleEndian.PutUint32(tmp[:4], math.Float32bits(float32(row[i])))
		buf.Write(tmp[:4])
		io := l.Iolet
		if io < 0 {
			io = 255
		}
		buf.WriteByte(byte(io))
	}
}

// decodeSite parses one site record, the inverse of encodeSite: it
// returns the site and writes its q-1 link distances into dists.
func decodeSite(r *bytes.Reader, q int, dists []float64) (geometry.Site, error) {
	var s geometry.Site
	var tmp [4]byte
	get16 := func() (int, error) {
		if _, err := io.ReadFull(r, tmp[:2]); err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint16(tmp[:2])), nil
	}
	var err error
	if s.Pos.X, err = get16(); err != nil {
		return s, err
	}
	if s.Pos.Y, err = get16(); err != nil {
		return s, err
	}
	if s.Pos.Z, err = get16(); err != nil {
		return s, err
	}
	fb, err := r.ReadByte()
	if err != nil {
		return s, err
	}
	s.Flags = geometry.SiteFlags(fb)
	if s.Flags&geometry.FlagWall != 0 {
		getF32 := func() (float64, error) {
			if _, err := io.ReadFull(r, tmp[:4]); err != nil {
				return 0, err
			}
			return float64(math.Float32frombits(binary.LittleEndian.Uint32(tmp[:4]))), nil
		}
		if s.WallNormal.X, err = getF32(); err != nil {
			return s, err
		}
		if s.WallNormal.Y, err = getF32(); err != nil {
			return s, err
		}
		if s.WallNormal.Z, err = getF32(); err != nil {
			return s, err
		}
	}
	s.Links = make([]geometry.Link, q-1)
	for i := range s.Links {
		tb, err := r.ReadByte()
		if err != nil {
			return s, err
		}
		s.Links[i].Type = geometry.LinkType(tb)
		s.Links[i].Iolet = -1
		if s.Links[i].Type == geometry.LinkFluid {
			continue
		}
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return s, err
		}
		dists[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(tmp[:4])))
		ib, err := r.ReadByte()
		if err != nil {
			return s, err
		}
		if ib == 255 {
			s.Links[i].Iolet = -1
		} else {
			s.Links[i].Iolet = int(ib)
		}
	}
	return s, nil
}

// ReadHeader parses the header and block table, leaving r positioned at
// the first block payload.
func ReadHeader(r io.Reader) (*Header, error) {
	var u [8]uint32
	if err := binary.Read(r, binary.LittleEndian, &u); err != nil {
		return nil, fmt.Errorf("gmy: header: %w", err)
	}
	if u[0] != Magic {
		return nil, fmt.Errorf("gmy: bad magic %#x", u[0])
	}
	if u[1] != Version {
		return nil, fmt.Errorf("gmy: unsupported version %d", u[1])
	}
	h := &Header{
		Dims:      vec.I3{X: int(u[2]), Y: int(u[3]), Z: int(u[4])},
		BlockSize: int(u[5]),
		ModelQ:    int(u[6]),
	}
	nIolets := int(u[7])
	var fs [4]float64
	if err := binary.Read(r, binary.LittleEndian, &fs); err != nil {
		return nil, fmt.Errorf("gmy: header floats: %w", err)
	}
	h.Origin = vec.New(fs[0], fs[1], fs[2])
	h.H = fs[3]
	for i := 0; i < nIolets; i++ {
		var g [8]float64
		if err := binary.Read(r, binary.LittleEndian, &g); err != nil {
			return nil, fmt.Errorf("gmy: iolet %d: %w", i, err)
		}
		var flag uint32
		if err := binary.Read(r, binary.LittleEndian, &flag); err != nil {
			return nil, fmt.Errorf("gmy: iolet %d: %w", i, err)
		}
		h.Iolets = append(h.Iolets, geometry.Iolet{
			Center:   vec.New(g[0], g[1], g[2]),
			Normal:   vec.New(g[3], g[4], g[5]),
			Radius:   g[6],
			Pressure: g[7],
			IsInlet:  flag == 1,
		})
	}
	nb := h.NumBlocks()
	h.BlockFluid = make([]int32, nb)
	h.blockLen = make([]int32, nb)
	for b := 0; b < nb; b++ {
		var pair [2]uint32
		if err := binary.Read(r, binary.LittleEndian, &pair); err != nil {
			return nil, fmt.Errorf("gmy: block table: %w", err)
		}
		h.BlockFluid[b] = int32(pair[0])
		h.blockLen[b] = int32(pair[1])
	}
	return h, nil
}

// Block is one decoded block payload: its site records, and their link
// distances, q-1 per site in site order (the layout geometry.Reassemble
// takes).
type Block struct {
	Sites []geometry.Site
	Dists []float64
}

// DecodeBlock decompresses and parses one block payload.
func DecodeBlock(payload []byte, fluidCount, q int) (Block, error) {
	zr, err := zlib.NewReader(bytes.NewReader(payload))
	if err != nil {
		return Block{}, fmt.Errorf("gmy: zlib: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return Block{}, fmt.Errorf("gmy: decompress: %w", err)
	}
	if err := zr.Close(); err != nil {
		return Block{}, err
	}
	br := bytes.NewReader(raw)
	blk := Block{Sites: make([]geometry.Site, fluidCount), Dists: make([]float64, fluidCount*(q-1))}
	for i := range blk.Sites {
		if blk.Sites[i], err = decodeSite(br, q, blk.Dists[i*(q-1):(i+1)*(q-1)]); err != nil {
			return Block{}, fmt.Errorf("gmy: site %d: %w", i, err)
		}
	}
	if br.Len() != 0 {
		return Block{}, fmt.Errorf("gmy: %d trailing bytes in block", br.Len())
	}
	return blk, nil
}

// Read parses a complete gmy stream back into a Domain. The model is
// chosen by the header's Q value.
func Read(r io.Reader) (*geometry.Domain, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	var model *lattice.Model
	switch h.ModelQ {
	case 19:
		model = lattice.D3Q19()
	case 15:
		model = lattice.D3Q15()
	default:
		return nil, fmt.Errorf("gmy: no model with Q=%d", h.ModelQ)
	}
	var all Block
	for b := 0; b < h.NumBlocks(); b++ {
		n := int(h.BlockFluid[b])
		plen := int(h.blockLen[b])
		if n == 0 {
			if plen != 0 {
				return nil, fmt.Errorf("gmy: empty block %d has payload", b)
			}
			continue
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("gmy: block %d payload: %w", b, err)
		}
		blk, err := DecodeBlock(payload, n, h.ModelQ)
		if err != nil {
			return nil, err
		}
		all.Sites = append(all.Sites, blk.Sites...)
		all.Dists = append(all.Dists, blk.Dists...)
	}
	return AssembleDomain(h, model, all)
}

// AssembleDomain reconstructs a Domain from decoded site records and
// their link distances. Sites may arrive in any order; they are sorted
// into canonical scan order (z, y, x ascending) to make round-trips
// exact.
func AssembleDomain(h *Header, model *lattice.Model, blk Block) (*geometry.Domain, error) {
	return geometry.Reassemble(model, h.Dims, h.Origin, h.H, h.Iolets, blk.Sites, blk.Dists)
}
