package par

import (
	"fmt"
	"sort"
)

// Internal tags for collectives. User tags start at TagUser.
const (
	tagBcast = iota
	tagReduce
	tagGather
	tagGatherBytes
	tagGatherInts
	tagScatter
	tagScatterBytes
	tagAlltoall
	tagAlltoallBytes
	tagBarrierUp
	tagBarrierDown
	tagSplit
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
	if c.rank == 0 {
		c.rt.traffic.addColl()
	}
	c.reduceTree(0, TagUser+tagBarrierUp, nil, func(acc, _ any) any { return acc })
	c.bcastTree(0, TagUser+tagBarrierDown, nil)
}

// Bcast broadcasts data from root to all ranks and returns each rank's
// view of it. The payload is shared by reference among goroutine ranks;
// receivers must treat it as read-only, as with an MPI broadcast into a
// const buffer. Use BcastF64 for a mutable per-rank copy.
func (c *Comm) Bcast(root int, data any) any {
	if c.rank == root {
		c.rt.traffic.addColl()
	}
	return c.bcastTree(root, TagUser+tagBcast, data)
}

// BcastF64 broadcasts a float64 vector from root and returns a private
// copy on every rank. On a one-rank communicator nobody else reads
// data, so it is its own private copy and nothing is allocated.
func (c *Comm) BcastF64(root int, data []float64) []float64 {
	if c.size == 1 {
		c.rt.traffic.addColl()
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

// BcastBytes broadcasts a byte slice from root and returns a private
// copy on every rank.
func (c *Comm) BcastBytes(root int, data []byte) []byte {
	out := c.Bcast(root, data)
	if out == nil {
		return nil
	}
	return append([]byte(nil), out.([]byte)...)
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
	if c.rank == root {
		c.rt.traffic.addColl()
	}
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
	if c.rank == root {
		c.rt.traffic.addColl()
	}
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
	c.rt.traffic.addColl()
	consume(root, in)
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvF64(AnySource, tag)
		consume(from, d)
		c.rt.pool.put(d)
	}
}

// GatherBytes collects byte slices at root (gatherv semantics).
func (c *Comm) GatherBytes(root int, in []byte) [][]byte {
	if c.rank == root {
		c.rt.traffic.addColl()
	}
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
	if c.rank == root {
		c.rt.traffic.addColl()
	}
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

// Scatter distributes parts[i] from root to rank i and returns each
// rank's part. parts is only read at root.
func (c *Comm) Scatter(root int, parts [][]float64) []float64 {
	if c.rank == root {
		c.rt.traffic.addColl()
		if len(parts) != c.size {
			panic(fmt.Sprintf("par: Scatter needs %d parts, got %d", c.size, len(parts)))
		}
		for i := 0; i < c.size; i++ {
			if i != root {
				c.SendF64(i, TagUser+tagScatter, parts[i])
			}
		}
		return append([]float64(nil), parts[root]...)
	}
	d, _ := c.RecvF64(root, TagUser+tagScatter)
	return d
}

// ScatterBytes distributes byte parts from root.
func (c *Comm) ScatterBytes(root int, parts [][]byte) []byte {
	if c.rank == root {
		c.rt.traffic.addColl()
		if len(parts) != c.size {
			panic(fmt.Sprintf("par: ScatterBytes needs %d parts, got %d", c.size, len(parts)))
		}
		for i := 0; i < c.size; i++ {
			if i != root {
				c.SendBytes(i, TagUser+tagScatterBytes, parts[i])
			}
		}
		return append([]byte(nil), parts[root]...)
	}
	d, _ := c.RecvBytes(root, TagUser+tagScatterBytes)
	return d
}

// Alltoall sends out[i] to rank i and returns the vector of received
// parts indexed by source rank (alltoallv semantics: parts may differ
// in length and may be empty).
func (c *Comm) Alltoall(out [][]float64) [][]float64 {
	if c.rank == 0 {
		c.rt.traffic.addColl()
	}
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

// AlltoallBytes is Alltoall for byte payloads.
func (c *Comm) AlltoallBytes(out [][]byte) [][]byte {
	if c.rank == 0 {
		c.rt.traffic.addColl()
	}
	if len(out) != c.size {
		panic(fmt.Sprintf("par: AlltoallBytes needs %d parts, got %d", c.size, len(out)))
	}
	in := make([][]byte, c.size)
	in[c.rank] = append([]byte(nil), out[c.rank]...)
	for i := 0; i < c.size; i++ {
		if i != c.rank {
			c.SendBytes(i, TagUser+tagAlltoallBytes, out[i])
		}
	}
	for i := 0; i < c.size-1; i++ {
		d, from := c.RecvBytes(AnySource, TagUser+tagAlltoallBytes)
		in[from] = d
	}
	return in
}

// Split partitions the communicator by color, ordering ranks within
// each new communicator by key (ties broken by old rank), exactly like
// MPI_Comm_split. Ranks passing a negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	if c.rank == 0 {
		c.rt.traffic.addColl()
	}
	// Gather (rank, color, key) triples at rank 0 of this communicator.
	all := c.GatherInts(0, []int{c.rank, color, key})
	if c.rank == 0 {
		type info struct{ rank, color, key int }
		groups := map[int][]info{}
		var negatives []int
		for _, tri := range all {
			si := info{tri[0], tri[1], tri[2]}
			if si.color < 0 {
				negatives = append(negatives, si.rank)
				continue
			}
			groups[si.color] = append(groups[si.color], si)
		}
		for col, g := range groups {
			sort.Slice(g, func(i, j int) bool {
				if g[i].key != g[j].key {
					return g[i].key < g[j].key
				}
				return g[i].rank < g[j].rank
			})
			members := make([]int, len(g))
			for i, si := range g {
				members[i] = c.world(si.rank)
			}
			for _, si := range g {
				c.SendInts(si.rank, TagUser+tagSplit, append([]int{col}, members...))
			}
		}
		for _, r := range negatives {
			c.SendInts(r, TagUser+tagSplit, []int{-1})
		}
	}
	reply, _ := c.RecvInts(0, TagUser+tagSplit)
	if reply[0] < 0 {
		return nil
	}
	members := reply[1:]
	myWorld := c.WorldRank()
	myNew := -1
	for i, w := range members {
		if w == myWorld {
			myNew = i
			break
		}
	}
	if myNew < 0 {
		panic("par: Split membership inconsistency")
	}
	return &Comm{
		rt:    c.rt,
		rank:  myNew,
		size:  len(members),
		ranks: members,
		cid:   commID(reply[0], members),
	}
}

// commID derives a deterministic communicator identity from the split
// colour and the member world-rank list (FNV-1a). All members compute
// the same value; distinct member sets get distinct ids with
// overwhelming probability, and message matching additionally checks
// source and tag.
func commID(color int, members []int) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(int64(color)) + 1)
	for _, m := range members {
		mix(uint64(m) + 0x9e3779b9)
	}
	if h == 0 {
		h = 1 // never collide with the world communicator's id
	}
	return h
}
