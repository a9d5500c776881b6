package octree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// EncodeNodes serialises a node list (e.g. a Query result) into the
// compact stream a steering client receives instead of raw fields:
// per node a level byte, the hierarchical key, the site count and the
// aggregated fields as float32 — §V's reduced representation on the
// wire.
func EncodeNodes(nodes []*Node) []byte {
	const perNode = 1 + 8 + 4 + 6*4
	le := binary.LittleEndian
	out := make([]byte, 4+perNode*len(nodes))
	le.PutUint32(out, uint32(len(nodes)))
	b := out[4:]
	for _, n := range nodes {
		b[0] = byte(n.Level)
		le.PutUint64(b[1:], n.Key)
		le.PutUint32(b[9:], uint32(n.Count))
		for i, v := range [6]float64{n.MeanRho, n.MeanU.X, n.MeanU.Y, n.MeanU.Z, n.MaxWSS, n.MeanWSS} {
			le.PutUint32(b[13+4*i:], math.Float32bits(float32(v)))
		}
		b = b[perNode:]
	}
	return out
}

// DecodeNodes parses an EncodeNodes stream.
func DecodeNodes(data []byte) ([]*Node, error) {
	r := bytes.NewReader(data)
	var tmp [8]byte
	le := binary.LittleEndian
	if _, err := io.ReadFull(r, tmp[:4]); err != nil {
		return nil, fmt.Errorf("octree: node stream header: %w", err)
	}
	count := int(le.Uint32(tmp[:4]))
	const maxNodes = 1 << 26
	if count < 0 || count > maxNodes {
		return nil, fmt.Errorf("octree: implausible node count %d", count)
	}
	getF32 := func() (float64, error) {
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return 0, err
		}
		return float64(math.Float32frombits(le.Uint32(tmp[:4]))), nil
	}
	nodes := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		n := &Node{}
		lvl, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("octree: node %d: %w", i, err)
		}
		n.Level = int(lvl)
		if _, err := io.ReadFull(r, tmp[:8]); err != nil {
			return nil, fmt.Errorf("octree: node %d key: %w", i, err)
		}
		n.Key = le.Uint64(tmp[:8])
		if _, err := io.ReadFull(r, tmp[:4]); err != nil {
			return nil, fmt.Errorf("octree: node %d count: %w", i, err)
		}
		n.Count = int(le.Uint32(tmp[:4]))
		fields := [6]*float64{&n.MeanRho, &n.MeanU.X, &n.MeanU.Y, &n.MeanU.Z, &n.MaxWSS, &n.MeanWSS}
		for _, fp := range fields {
			v, err := getF32()
			if err != nil {
				return nil, fmt.Errorf("octree: node %d fields: %w", i, err)
			}
			*fp = v
		}
		nodes = append(nodes, n)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("octree: %d trailing bytes in node stream", r.Len())
	}
	return nodes, nil
}
