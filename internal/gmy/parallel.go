package gmy

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/par"
)

// Message tags for the read/redistribution phase.
const (
	tagBlockData = par.TagUser + 201
)

// InitialBalance assigns blocks to ranks using only the coarse fluid
// counts — the paper's "initial approximate load balance" performed
// before any detailed geometry is read. Blocks are walked in id order
// and greedily cut into contiguous runs of near-equal fluid volume.
func InitialBalance(blockFluid []int32, ranks int) []int32 {
	assign := make([]int32, len(blockFluid))
	total := int64(0)
	for _, c := range blockFluid {
		total += int64(c)
	}
	if ranks <= 1 || total == 0 {
		return assign
	}
	target := float64(total) / float64(ranks)
	rank, acc := 0, 0.0
	for b, c := range blockFluid {
		if acc >= target*float64(rank+1) && rank < ranks-1 {
			rank++
		}
		assign[b] = int32(rank)
		acc += float64(c)
	}
	return assign
}

// BalanceQuality returns max/mean fluid sites per rank for an
// assignment (1.0 = perfect).
func BalanceQuality(blockFluid []int32, assign []int32, ranks int) float64 {
	per := make([]int64, ranks)
	var total int64
	for b, c := range blockFluid {
		per[assign[b]] += int64(c)
		total += int64(c)
	}
	maxPer := int64(0)
	for _, p := range per {
		if p > maxPer {
			maxPer = p
		}
	}
	if total == 0 {
		return 1
	}
	return float64(maxPer) / (float64(total) / float64(ranks))
}

// ParallelRead performs the two-level read of section IV-B on a par
// communicator: every rank parses the (small) header and block table;
// only the first nReaders ranks decode block payloads, each covering a
// contiguous share of the file; readers then forward each block's
// still-compressed payload to the rank that owns it under the initial
// balance. Returns this rank's owned blocks as decoded site records
// and link distances, plus the header and the block→rank assignment.
//
// file is the whole serialised stream, standing in for a file on a
// parallel filesystem every rank could open. nReaders controls "the
// balance between file I/O and distribution communication".
func ParallelRead(comm *par.Comm, file []byte, nReaders int) (*Header, []int32, map[int]Block, error) {
	if nReaders < 1 {
		nReaders = 1
	}
	if nReaders > comm.Size() {
		nReaders = comm.Size()
	}
	h, err := ReadHeader(bytes.NewReader(file))
	if err != nil {
		return nil, nil, nil, err
	}
	nb := h.NumBlocks()
	assign := InitialBalance(h.BlockFluid, comm.Size())

	// Compute each block's absolute payload offset within the stream.
	headerLen := headerSize(h)
	offsets := make([]int, nb+1)
	offsets[0] = headerLen
	for b := 0; b < nb; b++ {
		offsets[b+1] = offsets[b] + int(h.blockLen[b])
	}

	// Reader r covers blocks [r*nb/nReaders, (r+1)*nb/nReaders).
	me := comm.Rank()
	owned := map[int]Block{}
	type packet struct {
		blocks []int
		data   [][]byte
	}
	outgoing := make(map[int]*packet)
	if me < nReaders {
		lo := me * nb / nReaders
		hi := (me + 1) * nb / nReaders
		for b := lo; b < hi; b++ {
			if h.BlockFluid[b] == 0 {
				continue
			}
			payload := file[offsets[b]:offsets[b+1]]
			owner := int(assign[b])
			if owner == me {
				blk, err := DecodeBlock(payload, int(h.BlockFluid[b]), h.ModelQ)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("gmy: rank %d block %d: %w", me, b, err)
				}
				owned[b] = blk
				continue
			}
			p := outgoing[owner]
			if p == nil {
				p = &packet{}
				outgoing[owner] = p
			}
			p.blocks = append(p.blocks, b)
			p.data = append(p.data, payload)
		}
	}
	// Every rank learns how many packets to expect: readers announce
	// counts via an allreduce over a per-rank counter vector.
	expect := make([]float64, comm.Size())
	for owner := range outgoing {
		expect[owner]++
	}
	expect = comm.Allreduce(par.OpSum, expect)
	// Send packets: frame = u32 blockCount, then per block u32 id,
	// u32 len, payload bytes.
	for owner, p := range outgoing {
		var buf bytes.Buffer
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(p.blocks)))
		buf.Write(tmp[:])
		for i, b := range p.blocks {
			binary.LittleEndian.PutUint32(tmp[:], uint32(b))
			buf.Write(tmp[:])
			binary.LittleEndian.PutUint32(tmp[:], uint32(len(p.data[i])))
			buf.Write(tmp[:])
			buf.Write(p.data[i])
		}
		comm.SendBytes(owner, tagBlockData, buf.Bytes())
	}
	// Receive the expected number of packets.
	for i := 0; i < int(expect[me]); i++ {
		data, _ := comm.RecvBytes(par.AnySource, tagBlockData)
		r := bytes.NewReader(data)
		var tmp [4]byte
		if _, err := r.Read(tmp[:]); err != nil {
			return nil, nil, nil, err
		}
		count := int(binary.LittleEndian.Uint32(tmp[:]))
		for j := 0; j < count; j++ {
			if _, err := r.Read(tmp[:]); err != nil {
				return nil, nil, nil, err
			}
			b := int(binary.LittleEndian.Uint32(tmp[:]))
			if _, err := r.Read(tmp[:]); err != nil {
				return nil, nil, nil, err
			}
			plen := int(binary.LittleEndian.Uint32(tmp[:]))
			payload := make([]byte, plen)
			if _, err := r.Read(payload); err != nil {
				return nil, nil, nil, err
			}
			blk, err := DecodeBlock(payload, int(h.BlockFluid[b]), h.ModelQ)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("gmy: received block %d: %w", b, err)
			}
			owned[b] = blk
		}
	}
	return h, assign, owned, nil
}

// headerSize computes the byte length of the header + block table for a
// parsed header (used to locate block payload offsets).
func headerSize(h *Header) int {
	return 8*4 + // magic..nIolets u32s
		4*8 + // origin + h
		len(h.Iolets)*(8*8+4) + // iolet floats + flag
		h.NumBlocks()*8 // block table pairs
}
