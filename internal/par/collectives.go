package par

import "fmt"

// Internal tags for collectives. User tags start at TagUser.
const (
	tagBcast = iota
	tagReduce
	tagGather
	tagGatherBytes
	tagGatherInts
	tagAlltoall
	tagBarrierUp
	tagBarrierDown
)

// GatherConsume matches on AnySource, so two back-to-back collectives
// must not share a tag: a fast sender's part for collective N+1 could
// otherwise satisfy root's receive for collective N (mixing, say, a
// checkpoint part into a snapshot at steps where both cadences
// coincide). Each call therefore takes the next tag from a dedicated
// window — every rank calls collectives in the same SPMD order, so
// the per-rank counters agree. The window wraps far beyond how far a
// sender can run ahead of root (halo exchange and broadcasts
// re-synchronise ranks every step).
const (
	tagGatherConsumeBase   = 1 << 20
	tagGatherConsumeWindow = 1 << 16
)

// highestPow2LE returns the largest power of two that is <= n, or 0 for
// n == 0.
func highestPow2LE(n int) int {
	p := 0
	for s := 1; s <= n; s <<= 1 {
		p = s
	}
	return p
}

// vrank maps a physical comm rank to its virtual rank in a tree rooted
// at root; vphys is the inverse.
func vrank(rank, root, size int) int { return ((rank-root)%size + size) % size }
func vphys(v, root, size int) int    { return (v + root) % size }

// bcastTree runs a binomial broadcast rooted at root: virtual rank v
// receives from v minus its highest set bit, then forwards to v+step
// for each subsequent step. Returns the payload on every rank.
func (c *Comm) bcastTree(root, tag int, payload any) any {
	v, size := vrank(c.rank, root, c.size), c.size
	recvStep := highestPow2LE(v)
	if v != 0 {
		d, _ := c.Recv(vphys(v-recvStep, root, size), tag)
		payload = d
	}
	step := 1
	if v != 0 {
		step = recvStep << 1
	}
	for ; step < size; step <<= 1 {
		if v+step < size {
			c.Send(vphys(v+step, root, size), tag, payload)
		}
	}
	return payload
}

// reduceTree runs a binomial reduction to root using the lowest-bit
// tree: virtual rank v sends to v-step at the first step with v&step
// != 0, after combining contributions from v+step children. combine
// merges a received payload into the accumulator and returns it.
// Returns the final accumulator at root and nil elsewhere.
func (c *Comm) reduceTree(root, tag int, acc any, combine func(acc, in any) any) any {
	v, size := vrank(c.rank, root, c.size), c.size
	for step := 1; step < size; step <<= 1 {
		if v&step != 0 {
			c.Send(vphys(v-step, root, size), tag, acc)
			return nil
		}
		if v+step < size {
			d, _ := c.Recv(vphys(v+step, root, size), tag)
			acc = combine(acc, d)
		}
	}
	return acc
}

// Barrier blocks until every rank of the communicator has entered it.
func (c *Comm) Barrier() {
	if c.size == 1 {
		return
	}
	c.reduceTree(0, TagUser+tagBarrierUp, nil, func(acc, _ any) any { return acc })
	c.bcastTree(0, TagUser+tagBarrierDown, nil)
}

// Bcast broadcasts data from root to all ranks and returns each rank's
// view of it. The payload is shared by reference among goroutine ranks;
// receivers must treat it as read-only, as with an MPI broadcast into a
// const buffer. Use BcastF64 for a mutable per-rank copy.
func (c *Comm) Bcast(root int, data any) any {
	return c.bcastTree(root, TagUser+tagBcast, data)
}

// BcastF64 broadcasts a float64 vector from root and returns a private
// copy on every rank. On a one-rank communicator nobody else reads
// data, so it is its own private copy and nothing is allocated.
func (c *Comm) BcastF64(root int, data []float64) []float64 {
	if c.size == 1 {
		return data
	}
	out := c.Bcast(root, data)
	if out == nil {
		return nil
	}
	return append([]float64(nil), out.([]float64)...)
}

// BcastInt broadcasts a single int from root and returns it on every
// rank — a flag-sized collective. Small values (0..255) ride the
// runtime's preboxed integers, so the demand-driven snapshot decision
// this backs costs no allocation on the solver's critical path.
func (c *Comm) BcastInt(root, v int) int {
	return c.Bcast(root, v).(int)
}

// BcastInts broadcasts an int vector from root and returns a private
// copy on every rank.
func (c *Comm) BcastInts(root int, data []int) []int {
	out := c.Bcast(root, data)
	if out == nil {
		return nil
	}
	return append([]int(nil), out.([]int)...)
}

// Op is a reduction operator over float64.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("par: unknown op %d", o))
}

// Reduce combines each rank's vector element-wise with op, delivering
// the result at root. Non-root ranks receive nil. The input is not
// mutated.
func (c *Comm) Reduce(root int, op Op, in []float64) []float64 {
	acc := append([]float64(nil), in...)
	res := c.reduceTree(root, TagUser+tagReduce, acc, func(acc, in any) any {
		a := acc.([]float64)
		d := in.([]float64)
		if len(d) != len(a) {
			panic(fmt.Sprintf("par: Reduce length mismatch: %d vs %d", len(d), len(a)))
		}
		for i := range a {
			a[i] = op.apply(a[i], d[i])
		}
		return a
	})
	if res == nil {
		return nil
	}
	return res.([]float64)
}

// Allreduce combines every rank's vector with op and returns the result
// on all ranks.
func (c *Comm) Allreduce(op Op, in []float64) []float64 {
	res := c.Reduce(0, op, in)
	return c.BcastF64(0, res)
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op Op, x float64) float64 {
	return c.Allreduce(op, []float64{x})[0]
}

// Gather collects each rank's vector at root, returning a per-rank
// slice-of-slices at root and nil elsewhere. Vectors may have different
// lengths (gatherv semantics).
func (c *Comm) Gather(root int, in []float64) [][]float64 {
	if c.rank != root {
		c.SendF64(root, TagUser+tagGather, in)
		return nil
	}
	out := make([][]float64, c.size)
	out[root] = append([]float64(nil), in...)
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvF64(AnySource, TagUser+tagGather)
		out[from] = d
	}
	return out
}

// GatherConsume collects each rank's vector at root without retaining
// any of it: root's consume callback runs once per rank (its own part
// first, the rest in arrival order) with that rank's part, which is
// only valid for the duration of the call — the transport buffer is
// recycled into the runtime's pool immediately afterwards. Senders
// copy through the pool too, so every rank may reuse `in` the moment
// the call returns. This is the allocation-flat gather the per-step
// state gathers (snapshots, checkpoints) are built on; use Gather
// when the parts must outlive the collective. consume is ignored on
// non-root ranks (nil is fine there).
func (c *Comm) GatherConsume(root int, in []float64, consume func(src int, part []float64)) {
	tag := TagUser + tagGatherConsumeBase + c.gatherSeq%tagGatherConsumeWindow
	c.gatherSeq++
	if c.rank != root {
		c.SendF64Pooled(root, tag, in)
		return
	}
	consume(root, in)
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvF64(AnySource, tag)
		consume(from, d)
		c.rt.pool.put(d)
	}
}

// GatherBytes collects byte slices at root (gatherv semantics).
func (c *Comm) GatherBytes(root int, in []byte) [][]byte {
	if c.rank != root {
		c.SendBytes(root, TagUser+tagGatherBytes, in)
		return nil
	}
	out := make([][]byte, c.size)
	out[root] = append([]byte(nil), in...)
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvBytes(AnySource, TagUser+tagGatherBytes)
		out[from] = d
	}
	return out
}

// GatherInts collects int slices at root (gatherv semantics).
func (c *Comm) GatherInts(root int, in []int) [][]int {
	if c.rank != root {
		c.SendInts(root, TagUser+tagGatherInts, in)
		return nil
	}
	out := make([][]int, c.size)
	out[root] = append([]int(nil), in...)
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvInts(AnySource, TagUser+tagGatherInts)
		out[from] = d
	}
	return out
}

// Alltoall sends out[i] to rank i and returns the vector of received
// parts indexed by source rank (alltoallv semantics: parts may differ
// in length and may be empty).
func (c *Comm) Alltoall(out [][]float64) [][]float64 {
	if len(out) != c.size {
		panic(fmt.Sprintf("par: Alltoall needs %d parts, got %d", c.size, len(out)))
	}
	in := make([][]float64, c.size)
	in[c.rank] = append([]float64(nil), out[c.rank]...)
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.SendF64(i, TagUser+tagAlltoall, out[i])
		}
	}
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvF64(AnySource, TagUser+tagAlltoall)
		in[from] = d
	}
	return in
}
