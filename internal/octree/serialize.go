package octree

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/vec"
)

// nodeBytes is one node on the wire: a level byte, the hierarchical
// key, the site count and the six aggregated fields as float32 — §V's
// reduced representation.
const nodeBytes = 1 + 8 + 4 + 6*4

// putNode writes one node's wire form into b[:nodeBytes].
func putNode(b []byte, level int, key uint64, count int, rho float64, u vec.V3, maxWSS, meanWSS float64) {
	b = b[:nodeBytes]
	le := binary.LittleEndian
	b[0] = byte(level)
	le.PutUint64(b[1:], key)
	le.PutUint32(b[9:], uint32(count))
	le.PutUint32(b[13:], math.Float32bits(float32(rho)))
	le.PutUint32(b[17:], math.Float32bits(float32(u.X)))
	le.PutUint32(b[21:], math.Float32bits(float32(u.Y)))
	le.PutUint32(b[25:], math.Float32bits(float32(u.Z)))
	le.PutUint32(b[29:], math.Float32bits(float32(maxWSS)))
	le.PutUint32(b[33:], math.Float32bits(float32(meanWSS)))
}

// putCells writes cells lo, lo+1, … of a level into dst, whose length
// is a whole number of nodes: leaves straight from the fields, any
// other cell from its level.
func (t *Tree) putCells(dst []byte, level, lo int) {
	if level == 0 {
		f, keys, site := &t.f, t.lay.keys[0], t.lay.site
		for at := lo; len(dst) > 0; at++ {
			s := site[at]
			wss := f.wss(s)
			putNode(dst, 0, keys[at], 1, f.Rho[s], vec.New(f.Ux[s], f.Uy[s], f.Uz[s]), wss, wss)
			dst = dst[nodeBytes:]
		}
		return
	}
	for _, n := range t.levels[level][lo : lo+len(dst)/nodeBytes] {
		putNode(dst, n.Level, n.Key, n.Count, n.MeanRho, n.MeanU, n.MaxWSS, n.MeanWSS)
		dst = dst[nodeBytes:]
	}
}

// Reply is the answer to one ROI query in the compact stream a client
// receives instead of raw fields — a node count, then the cover's nodes
// in Z-order — sized but not yet produced. The cover is a list of runs
// of one level each: a cell wholly inside the box is the run of its
// descendants at the detail level, so sizing counts it from the run's
// bounds without descending, and WriteTo encodes the run in one loop,
// leaves straight from the snapshot's fields. Neither a node list nor a
// full-size buffer exists in between, so answering a query allocates
// nothing that grows with the reply and /data latency does not depend
// on what the heap looked like.
type Reply struct {
	t     *Tree
	roi   ROI
	nodes int
}

// Answer sizes the reply to a client's request, the one way the
// /data route, the in situ pipeline and the §V sweep read a tree:
// cells meeting the box [lo, hi] refined to the detail level, the rest
// of the domain at the context level. A zero-size box means the whole
// domain, [0, dims]. The levels are clamped to the tree: context to
// [0, Depth()-1], detail to [0, context].
func (t *Tree) Answer(dims, lo, hi vec.V3, detail, context int) Reply {
	context = min(max(context, 0), len(t.levels)-1)
	detail = min(max(detail, 0), context)
	box := vec.NewBox(lo, hi)
	if box.Size().Len2() == 0 {
		box = vec.NewBox(vec.V3{}, dims)
	}
	return t.reply(ROI{Box: box, DetailLevel: detail, ContextLevel: context})
}

// reply sizes the reply to roi, whose levels must be in the tree with
// detail at most context.
func (t *Tree) reply(roi ROI) Reply {
	r := Reply{t: t, roi: roi}
	t.runs(&r.roi, func(_, lo, hi int) { r.nodes += hi - lo })
	return r
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
	r.t.runs(&r.roi, func(level, lo, hi int) {
		for lo < hi {
			n := min(hi-lo, (replyChunk-len(b))/nodeBytes)
			if n == 0 {
				flush()
				continue
			}
			at := len(b)
			b = b[:at+n*nodeBytes]
			r.t.putCells(b[at:], level, lo)
			lo += n
		}
	})
	flush()
	return written, err
}

// Bytes returns the reply in one buffer of exactly its size, for
// callers that hand it on as a message.
func (r Reply) Bytes() []byte {
	b := make([]byte, r.Size())
	binary.LittleEndian.PutUint32(b, uint32(r.nodes))
	at := 4
	r.t.runs(&r.roi, func(level, lo, hi int) {
		end := at + (hi-lo)*nodeBytes
		r.t.putCells(b[at:end], level, lo)
		at = end
	})
	return b
}

// DecodeNodes parses a Reply stream into one slab of nodes, with the
// same errors as reading it node by node and field by field: EOF where
// the stream ends at a field's start, ErrUnexpectedEOF inside one.
func DecodeNodes(data []byte) ([]*Node, error) {
	le := binary.LittleEndian
	if len(data) < 4 {
		return nil, fmt.Errorf("octree: node stream header: %w", cut(len(data)))
	}
	count := int(le.Uint32(data))
	const maxNodes = 1 << 26
	if count > maxNodes {
		return nil, fmt.Errorf("octree: implausible node count %d", count)
	}
	body := data[4:]
	if have := len(body); have < count*nodeBytes {
		i, off := have/nodeBytes, have%nodeBytes
		switch {
		case off == 0:
			return nil, fmt.Errorf("octree: node %d: %w", i, io.EOF)
		case off < 9:
			return nil, fmt.Errorf("octree: node %d key: %w", i, cut(off-1))
		case off < 13:
			return nil, fmt.Errorf("octree: node %d count: %w", i, cut(off-9))
		default:
			return nil, fmt.Errorf("octree: node %d fields: %w", i, cut((off-13)%4))
		}
	}
	if extra := len(body) - count*nodeBytes; extra != 0 {
		return nil, fmt.Errorf("octree: %d trailing bytes in node stream", extra)
	}
	f32 := func(b []byte) float64 { return float64(math.Float32frombits(le.Uint32(b))) }
	slab := make([]Node, count)
	nodes := make([]*Node, count)
	for i := range slab {
		b := body[i*nodeBytes : (i+1)*nodeBytes]
		slab[i] = Node{
			Level:   int(b[0]),
			Key:     le.Uint64(b[1:]),
			Count:   int(le.Uint32(b[9:])),
			MeanRho: f32(b[13:]),
			MeanU:   vec.New(f32(b[17:]), f32(b[21:]), f32(b[25:])),
			MaxWSS:  f32(b[29:]),
			MeanWSS: f32(b[33:]),
		}
		nodes[i] = &slab[i]
	}
	return nodes, nil
}

// cut is the error io.ReadFull gives for a field of which the stream
// held only read bytes: EOF when it held none, ErrUnexpectedEOF
// otherwise.
func cut(read int) error {
	if read == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}
