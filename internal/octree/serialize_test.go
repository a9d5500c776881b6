package octree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// Encode sizes the reply to an explicit roi, refusing levels the tree
// does not have. The tests ask for covers through it that Answer's
// request rule would change, such as those of empty and flat boxes.
func (t *Tree) Encode(roi ROI) (Reply, error) {
	if roi.DetailLevel < 0 || roi.ContextLevel >= len(t.levels) || roi.DetailLevel > roi.ContextLevel {
		return Reply{}, fmt.Errorf("octree: invalid ROI levels detail=%d context=%d depth=%d",
			roi.DetailLevel, roi.ContextLevel, len(t.levels))
	}
	return t.reply(roi), nil
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

// sameNode reports whether a and b are the same node bit for bit.
func sameNode(a, b *Node) bool {
	bits := math.Float64bits
	return a.Level == b.Level && a.Key == b.Key && a.Count == b.Count &&
		bits(a.MeanRho) == bits(b.MeanRho) && bits(a.MeanU.X) == bits(b.MeanU.X) &&
		bits(a.MeanU.Y) == bits(b.MeanU.Y) && bits(a.MeanU.Z) == bits(b.MeanU.Z) &&
		bits(a.MaxWSS) == bits(b.MaxWSS) && bits(a.MeanWSS) == bits(b.MeanWSS)
}

// checkReply holds tree's reply to roi to the oracle's: the streamed
// reply and the one-buffer reply are the old encoder's bytes of the old
// Query's cover over the leaf-copying build, and DecodeNodes gives back
// that cover as a reply carries it, node for node. It reports whether
// the streamed reply took more than one Write.
func checkReply(t *testing.T, tree *Tree, oracle *leafTree, roi ROI) bool {
	t.Helper()
	nodes, err := oracle.query(roi)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeNodes(nodes)
	reply, err := tree.Encode(roi)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Nodes() != len(nodes) || reply.Size() != len(want) {
		t.Fatalf("%+v: reply sized %d nodes / %d bytes, the oracle's cover has %d / %d",
			roi, reply.Nodes(), reply.Size(), len(nodes), len(want))
	}
	var w countingWriter
	n, err := reply.WriteTo(&w)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("WriteTo: %d bytes, err %v; want %d", n, err, len(want))
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("%+v: streamed reply differs from the old encoder", roi)
	}
	if !bytes.Equal(reply.Bytes(), want) {
		t.Fatalf("%+v: Bytes differs from the old encoder", roi)
	}
	decoded, err := DecodeNodes(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if !sameNode(decoded[i], onWire(n)) {
			t.Fatalf("%+v: node %d decoded as %+v, cover has %+v", roi, i, *decoded[i], *n)
		}
	}
	return w.writes > 1
}

// TestReplyMatchesOldEncoder generates ROIs on both bench/ domains —
// the whole domain, a box around it, its eight octants, random boxes,
// and boxes that are empty, flat, inverted, outside the domain, and
// cell-aligned ones that make whole subtrees fall inside — and holds
// the reply to each, at every valid (detail, context) pair, to the
// oracle's (checkReply); on the small domain also without wall shear
// stress.
func TestReplyMatchesOldEncoder(t *testing.T) {
	chunked := false
	for _, dc := range []struct {
		preset string
		scale  float64
		random int
	}{{"aneurysm", 2.0, 24}, {"tree", 3.0, 6}} {
		dom, f := benchDomain(t, dc.preset, dc.scale)
		rng := rand.New(rand.NewSource(int64(dom.NumSites())))
		d := dom.Dims.F()
		point := func() vec.V3 {
			return vec.New(d.X*(1.2*rng.Float64()-0.1), d.Y*(1.2*rng.Float64()-0.1), d.Z*(1.2*rng.Float64()-0.1))
		}
		mid := d.Mul(0.5)
		boxes := []vec.Box{
			vec.NewBox(vec.New(0, 0, 0), d),                            // the whole domain
			vec.NewBox(vec.Splat(-50), d.Add(vec.Splat(50))),           // around it
			vec.NewBox(mid, mid),                                       // empty
			vec.NewBox(vec.New(0, 0, mid.Z), vec.New(d.X, d.Y, mid.Z)), // flat
			vec.NewBox(d, vec.New(0, 0, 0)),                            // inverted
			vec.NewBox(d.Add(vec.Splat(1)), d.Add(vec.Splat(40))),      // outside
			vec.NewBox(vec.Splat(-40), vec.Splat(-1)),                  // outside, below
			vec.NewBox(vec.New(8, 8, 8), vec.New(40, 32, 48)),          // cell-aligned
			vec.NewBox(vec.New(16, 0, 0), vec.New(32, d.Y, d.Z)),       // cell-aligned slab
		}
		boxes = append(boxes, octants(dom)...)
		for i := 0; i < dc.random; i++ {
			a, b := point(), point()
			boxes = append(boxes, vec.NewBox(a.Min(b), a.Max(b)))
		}
		fields := []Fields{f}
		if dc.preset == "aneurysm" {
			fields = append(fields, Fields{Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz})
		}
		for _, f := range fields {
			tree, err := Build(dom, f)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := buildLeaves(dom, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, box := range boxes {
				for ctx := 0; ctx < tree.Depth(); ctx++ {
					for detail := 0; detail <= ctx; detail++ {
						chunked = checkReply(t, tree, oracle, ROI{Box: box, DetailLevel: detail, ContextLevel: ctx}) || chunked
					}
				}
			}
		}
	}
	if !chunked {
		t.Error("no reply of the sweep spanned more than one chunk: the flush path is untested")
	}
}

func TestEncodeDecodeNodesRoundTrip(t *testing.T) {
	dom, _, f := testTree(t)
	oracle, err := buildLeaves(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	roi := ROI{
		Box:          vec.NewBox(vec.New(8, 8, 8), vec.New(16, 16, 16)),
		DetailLevel:  0,
		ContextLevel: 3,
	}
	nodes, err := oracle.query(roi)
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
	if covered(got) != covered(nodes) {
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
	dom, tree, _ := testTree(t)
	data := tree.Answer(dom.Dims.F(), vec.V3{}, vec.V3{}, 3, 3).Bytes()
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

// octantReplies returns the replies of the eight octants of the small
// bench/ domain at the given levels; detail 0 / context 3 is what
// bench/'s /data reads get.
func octantReplies(t testing.TB, detail, context int) [][]byte {
	dom, f := benchSmallDomain(t)
	tree, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, box := range octants(dom) {
		reply, err := tree.Encode(ROI{Box: box, DetailLevel: detail, ContextLevel: context})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reply.Bytes())
	}
	return out
}

// TestDecodeNodesAllocatesFixed: a decode makes the node slab and the
// pointer slice it returns, whatever the node count.
func TestDecodeNodesAllocatesFixed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	replies := octantReplies(t, 0, 3)
	replies = append(replies,
		encodeNodes([]*Node{{Level: 2, Key: 9, Count: 4}}),
		encodeNodes([]*Node{{}, {Level: 1}, {Level: 3, Count: 17}}))
	for _, data := range replies {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeNodes(data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("decoding %d nodes makes %.0f objects, want 2", (len(data)-4)/nodeBytes, allocs)
		}
	}
}

// FuzzDecodeNodes runs DecodeNodes against the decoder it replaced,
// which reads the stream node by node and field by field: on any input
// both return the same nodes, bit for bit, or both fail with the same
// error. The seeds are real octant replies: the eight at detail 2 /
// context 4 (a few kilobytes, so the fuzzer's mutations and its
// minimisation stay quick) and one as bench/ reads it.
func FuzzDecodeNodes(f *testing.F) {
	for _, data := range append(octantReplies(f, 2, 4), octantReplies(f, 0, 3)[0]) {
		f.Add(data)
		f.Add(data[:len(data)/2])                       // truncated inside the body
		f.Add(data[:4+nodeBytes+13])                    // truncated at a field
		f.Add(append(data[:len(data):len(data)], 0, 1)) // trailing bytes
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 1})          // oversized count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversized count
	f.Add([]byte{0, 0, 0, 4})             // the largest plausible count, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeNodes(data)
		want, werr := decodeNodesOld(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeNodes error %v, old decoder %v", err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("DecodeNodes error %q, old decoder %q", err, werr)
			}
			return
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeNodes gave %d nodes, old decoder %d", len(got), len(want))
		}
		for i := range got {
			if !sameNode(got[i], want[i]) {
				t.Fatalf("node %d: %+v, old decoder %+v", i, *got[i], *want[i])
			}
		}
	})
}

// BenchmarkDataReply is one /data sweep after the tree is built, on
// both bench/ domains: the eight octants at detail 0 / context 3, each
// sized, written and decoded as a client would.
func BenchmarkDataReply(b *testing.B) {
	for _, dc := range benchCases {
		b.Run(dc.preset, func(b *testing.B) {
			dom, f := benchDomain(b, dc.preset, dc.scale)
			tree, err := Build(dom, f)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, box := range octants(dom) {
					reply, err := tree.Encode(ROI{Box: box, DetailLevel: 0, ContextLevel: 3})
					if err != nil {
						b.Fatal(err)
					}
					buf.Reset()
					if _, err := reply.WriteTo(&buf); err != nil {
						b.Fatal(err)
					}
					if _, err := DecodeNodes(buf.Bytes()); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// reducedReply is the request rule the /data route applied before
// Answer: a zero-size box is the whole domain, context is capped at the
// top level, detail raised to 0 and then capped at context. It is
// Answer's oracle wherever it answered.
func reducedReply(tree *Tree, dims, roiMin, roiMax vec.V3, detail, ctx int) (Reply, error) {
	if ctx >= tree.Depth() {
		ctx = tree.Depth() - 1
	}
	if detail < 0 {
		detail = 0
	}
	if detail > ctx {
		detail = ctx
	}
	box := vec.NewBox(roiMin, roiMax)
	if box.Size().Len2() == 0 {
		box = vec.NewBox(vec.New(0, 0, 0), dims)
	}
	return tree.Encode(ROI{Box: box, DetailLevel: detail, ContextLevel: ctx})
}

// TestAnswerMatchesReducedReply: on the small bench/ domain, for zero,
// whole, inside, outside and inverted boxes and every (detail, context)
// in [-2, depth+1]², Answer gives the old rule's bytes. The old rule
// refused a negative context; Answer clamps it to 0, so there it gives
// the old rule's bytes at context 0.
func TestAnswerMatchesReducedReply(t *testing.T) {
	dom, f := benchSmallDomain(t)
	tree, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	d := dom.Dims.F()
	mid := d.Mul(0.5)
	boxes := [][2]vec.V3{
		{{}, {}},   // zero
		{mid, mid}, // zero size, inside
		{{}, d},    // the whole domain
		{mid.Sub(vec.Splat(5)), mid.Add(vec.Splat(7))}, // inside
		{d.Add(vec.Splat(1)), d.Add(vec.Splat(30))},    // outside
		{d, {}}, // inverted
	}
	for _, b := range boxes {
		for ctx := -2; ctx <= tree.Depth()+1; ctx++ {
			for detail := -2; detail <= tree.Depth()+1; detail++ {
				got := tree.Answer(d, b[0], b[1], detail, ctx).Bytes()
				want, err := reducedReply(tree, d, b[0], b[1], detail, ctx)
				if err != nil {
					if ctx >= 0 {
						t.Fatalf("box %v detail %d context %d: the old rule refused: %v", b, detail, ctx, err)
					}
					if want, err = reducedReply(tree, d, b[0], b[1], detail, 0); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("box %v detail %d context %d: Answer differs from the old rule", b, detail, ctx)
				}
			}
		}
	}
}
