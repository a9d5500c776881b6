package octree

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/vec"
)

// encodeNodes is the encoder the data plane used before replies were
// streamed: the whole cover as a node list in, one full-size buffer
// out. It is the byte oracle of Reply.
func encodeNodes(nodes []*Node) []byte {
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

// countingWriter counts the Writes a reply arrives in.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestReplyMatchesOldEncoder sweeps the eight octants of the domain,
// and the whole of it, over every valid (detail, context) pair: the
// streamed reply and the one-buffer reply are byte for byte what the
// old encoder made of the Query node list, and decode back to that
// list's identities.
func TestReplyMatchesOldEncoder(t *testing.T) {
	dom, f := benchSmallDomain(t)
	tree, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	h := dom.Dims.F().Mul(0.5)
	boxes := []vec.Box{vec.NewBox(vec.New(0, 0, 0), dom.Dims.F())}
	for o := 0; o < 8; o++ {
		lo := vec.New(float64(o&1)*h.X, float64(o>>1&1)*h.Y, float64(o>>2&1)*h.Z)
		boxes = append(boxes, vec.NewBox(lo, lo.Add(h)))
	}
	chunked := false
	for bi, box := range boxes {
		for ctx := 0; ctx < tree.Depth(); ctx++ {
			for detail := 0; detail <= ctx; detail++ {
				roi := ROI{Box: box, DetailLevel: detail, ContextLevel: ctx}
				nodes, err := tree.Query(roi)
				if err != nil {
					t.Fatal(err)
				}
				want := encodeNodes(nodes)
				reply, err := tree.Encode(roi)
				if err != nil {
					t.Fatal(err)
				}
				if reply.Nodes() != len(nodes) || reply.Size() != len(want) {
					t.Fatalf("box %d detail %d context %d: reply sized %d nodes / %d bytes, cover has %d / %d",
						bi, detail, ctx, reply.Nodes(), reply.Size(), len(nodes), len(want))
				}
				var w countingWriter
				n, err := reply.WriteTo(&w)
				if err != nil || n != int64(len(want)) {
					t.Fatalf("WriteTo: %d bytes, err %v; want %d", n, err, len(want))
				}
				chunked = chunked || w.writes > 1
				if !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("box %d detail %d context %d: streamed reply differs from the old encoder", bi, detail, ctx)
				}
				if !bytes.Equal(reply.Bytes(), want) {
					t.Fatalf("box %d detail %d context %d: Bytes differs from the old encoder", bi, detail, ctx)
				}
				got, err := DecodeNodes(w.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range nodes {
					if got[i].Level != n.Level || got[i].Key != n.Key || got[i].Count != n.Count {
						t.Fatalf("node %d decoded as %+v, cover has %+v", i, got[i], n)
					}
				}
			}
		}
	}
	if !chunked {
		t.Error("no reply of the sweep spanned more than one chunk: the flush path is untested")
	}
	if _, err := tree.Encode(ROI{DetailLevel: 2, ContextLevel: 1}); err == nil {
		t.Error("Encode accepted detail > context")
	}
}

func TestEncodeDecodeNodesRoundTrip(t *testing.T) {
	_, tree, _ := testTree(t)
	roi := ROI{
		Box:          vec.NewBox(vec.New(8, 8, 8), vec.New(16, 16, 16)),
		DetailLevel:  0,
		ContextLevel: 3,
	}
	nodes, err := tree.Query(roi)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeNodes(nodes)
	got, err := DecodeNodes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(nodes) {
		t.Fatalf("decoded %d nodes, want %d", len(got), len(nodes))
	}
	for i, n := range nodes {
		g := got[i]
		if g.Level != n.Level || g.Key != n.Key || g.Count != n.Count {
			t.Fatalf("node %d identity mismatch: %+v vs %+v", i, g, n)
		}
		// Fields survive as float32.
		if math.Abs(g.MeanRho-n.MeanRho) > 1e-6 {
			t.Fatalf("node %d rho %v vs %v", i, g.MeanRho, n.MeanRho)
		}
		if g.MeanU.Dist(n.MeanU) > 1e-6 {
			t.Fatalf("node %d u %v vs %v", i, g.MeanU, n.MeanU)
		}
		if math.Abs(g.MaxWSS-n.MaxWSS) > 1e-6 {
			t.Fatalf("node %d wss %v vs %v", i, g.MaxWSS, n.MaxWSS)
		}
	}
	// Coverage must survive the wire.
	if CoverCount(got) != CoverCount(nodes) {
		t.Error("cover count changed across serialisation")
	}
}

func TestDecodeNodesRejectsGarbage(t *testing.T) {
	if _, err := DecodeNodes(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := DecodeNodes([]byte{1, 2}); err == nil {
		t.Error("short header accepted")
	}
	// Valid header claiming nodes but no payload.
	if _, err := DecodeNodes([]byte{5, 0, 0, 0}); err == nil {
		t.Error("truncated payload accepted")
	}
	// Implausible count.
	if _, err := DecodeNodes([]byte{0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("huge count accepted")
	}
	// Trailing junk.
	_, tree, _ := testTree(t)
	data := encodeNodes(tree.Level(3))
	if _, err := DecodeNodes(append(data, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEncodeNodesEmpty(t *testing.T) {
	data := encodeNodes(nil)
	got, err := DecodeNodes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d nodes from empty stream", len(got))
	}
}
