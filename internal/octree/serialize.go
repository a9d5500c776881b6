package octree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// nodeBytes is one node on the wire: a level byte, the hierarchical
// key, the site count and the six aggregated fields as float32 — §V's
// reduced representation.
const nodeBytes = 1 + 8 + 4 + 6*4

// appendNode appends n's wire form to b.
func appendNode(b []byte, n *Node) []byte {
	le := binary.LittleEndian
	b = append(b, byte(n.Level))
	b = le.AppendUint64(b, n.Key)
	b = le.AppendUint32(b, uint32(n.Count))
	for _, v := range [6]float64{n.MeanRho, n.MeanU.X, n.MeanU.Y, n.MeanU.Z, n.MaxWSS, n.MeanWSS} {
		b = le.AppendUint32(b, math.Float32bits(float32(v)))
	}
	return b
}

// Reply is the answer to one ROI query in the compact stream a client
// receives instead of raw fields — a node count, then the cover's nodes
// in Z-order — sized but not yet produced: Encode walks the cover once
// to count it, WriteTo walks it again to encode it. Neither a node list
// nor a full-size buffer exists in between, so answering a query
// allocates nothing that grows with the reply and /data latency does
// not depend on what the heap looked like.
type Reply struct {
	t     *Tree
	roi   ROI
	nodes int
}

// Encode validates roi and sizes its reply.
func (t *Tree) Encode(roi ROI) (Reply, error) {
	if err := t.checkROI(roi); err != nil {
		return Reply{}, err
	}
	r := Reply{t: t, roi: roi}
	t.visit(&r.roi, func(*Node) { r.nodes++ })
	return r, nil
}

// Nodes returns the number of nodes in the reply.
func (r Reply) Nodes() int { return r.nodes }

// Size returns the length of the reply in bytes.
func (r Reply) Size() int { return 4 + nodeBytes*r.nodes }

// replyChunk is the buffer a reply is produced through: large enough
// that a write per chunk costs nothing next to encoding it, small
// enough to stay in cache.
const replyChunk = 32 << 10

var replyChunks = sync.Pool{New: func() any { return new([replyChunk]byte) }}

// WriteTo encodes the reply into w, a chunk at a time through a pooled
// buffer.
func (r Reply) WriteTo(w io.Writer) (int64, error) {
	chunk := replyChunks.Get().(*[replyChunk]byte)
	defer replyChunks.Put(chunk)
	var (
		written int64
		err     error
	)
	b := binary.LittleEndian.AppendUint32(chunk[:0], uint32(r.nodes))
	flush := func() {
		if err == nil {
			var n int
			n, err = w.Write(b)
			written += int64(n)
		}
		b = b[:0]
	}
	r.t.visit(&r.roi, func(n *Node) {
		if len(b)+nodeBytes > replyChunk {
			flush()
		}
		b = appendNode(b, n)
	})
	flush()
	return written, err
}

// Bytes returns the reply in one buffer of exactly its size, for
// callers that hand it on as a message.
func (r Reply) Bytes() []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, r.Size()), uint32(r.nodes))
	r.t.visit(&r.roi, func(n *Node) { b = appendNode(b, n) })
	return b
}

// DecodeNodes parses a Reply stream.
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
