// Package par provides a simulated message-passing runtime: the MPI
// substitute this repository runs on.
//
// The paper's system (HemeLB plus its in situ pre-/post-processing) is
// an MPI application. This environment has no MPI, so par reproduces the
// programming model at laptop scale: a Runtime launches P logical ranks
// as goroutines, each receiving a *Comm handle providing point-to-point
// messaging and collectives. Every byte moved through
// a Comm is metered, which is what the paper's co-design questions
// (communication cost of visualisation algorithms, file-read
// distribution cost, halo-exchange volume) need measured.
//
// Messages are matched MPI-style on (source, tag) with
// non-overtaking order per (source, dest, tag) pair. Payloads are Go
// slices; the typed helpers (SendF64 etc.) copy on send so callers may
// reuse buffers immediately. The untyped Send shares the slice by
// reference, mirroring MPI's buffer-ownership rule: the sender must not
// mutate it until the receiver is done.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// TagUser is the first tag value available to applications; tags below
// it are reserved for internal collectives.
const TagUser = 1024

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// message is an envelope queued at the receiver.
type message struct {
	src  int // sender's rank
	tag  int
	data any
	size int // metered payload bytes
}

// mailbox is one rank's incoming queue with (src, tag) matching.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []message
	// aborted is the runtime-shared abort flag: when set, get panics
	// with abortPanic instead of blocking, so a dead peer cannot strand
	// this rank in a collective forever (see Runtime.abort).
	aborted *atomic.Bool
}

func newMailbox(aborted *atomic.Bool) *mailbox {
	mb := &mailbox{aborted: aborted}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// get blocks until a message matching (src, tag) is available and
// removes it. src == AnySource matches any sender.
func (mb *mailbox) get(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.aborted != nil && mb.aborted.Load() {
			panic(abortPanic{})
		}
		for i := range mb.q {
			if m := mb.q[i]; (src == AnySource || m.src == src) && m.tag == tag {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// bufPool is a bounded free-list of float64 transport buffers shared
// by all ranks of a runtime. Hot paths (halo exchange, state gathers)
// that run every step would otherwise allocate a fresh copy per send;
// recycling through the pool keeps steady-state stepping
// allocation-flat. A plain mutex-guarded list (not sync.Pool) so
// retention is deterministic — the allocation guards in lb rely on
// that.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]float64
}

// maxPooledBufs bounds how many buffers the pool retains; beyond it,
// returned buffers are dropped for the GC (burst traffic must not pin
// memory forever).
const maxPooledBufs = 64

// get returns a length-n buffer, reusing a pooled one when its
// capacity suffices. Contents are unspecified; callers overwrite.
func (p *bufPool) get(n int) []float64 {
	p.mu.Lock()
	for i, b := range p.bufs {
		if cap(b) >= n {
			last := len(p.bufs) - 1
			p.bufs[i] = p.bufs[last]
			p.bufs[last] = nil
			p.bufs = p.bufs[:last]
			p.mu.Unlock()
			return b[:n]
		}
	}
	p.mu.Unlock()
	return make([]float64, n)
}

// put hands a buffer back for reuse.
func (p *bufPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < maxPooledBufs {
		p.bufs = append(p.bufs, b[:0])
	}
	p.mu.Unlock()
}

// Traffic accumulates communication metering for one runtime.
type Traffic struct {
	mu       sync.Mutex
	bytes    int64
	messages int64
	perRank  []int64 // bytes sent by each rank
}

// Bytes returns total payload bytes sent through the runtime.
func (t *Traffic) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Messages returns the total number of point-to-point messages.
func (t *Traffic) Messages() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.messages
}

// PerRankBytes returns a copy of the bytes-sent-per-rank vector.
func (t *Traffic) PerRankBytes() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int64, len(t.perRank))
	copy(out, t.perRank)
	return out
}

// Reset zeroes all counters.
func (t *Traffic) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bytes, t.messages = 0, 0
	for i := range t.perRank {
		t.perRank[i] = 0
	}
}

func (t *Traffic) addSend(rank, n int) {
	t.mu.Lock()
	t.bytes += int64(n)
	t.messages++
	if rank >= 0 && rank < len(t.perRank) {
		t.perRank[rank] += int64(n)
	}
	t.mu.Unlock()
}

// Runtime owns the mailboxes and the traffic meter for a group of
// logical ranks.
type Runtime struct {
	size    int
	boxes   []*mailbox
	traffic *Traffic
	pool    *bufPool
	// aborted flips when a rank panics mid-Run; shared with every
	// mailbox so blocked collectives unwind instead of deadlocking.
	aborted atomic.Bool
}

// NewRuntime creates a runtime for size ranks.
func NewRuntime(size int) *Runtime {
	if size <= 0 {
		panic(fmt.Sprintf("par: runtime size must be positive, got %d", size))
	}
	r := &Runtime{
		size:    size,
		boxes:   make([]*mailbox, size),
		traffic: &Traffic{perRank: make([]int64, size)},
		pool:    &bufPool{},
	}
	for i := range r.boxes {
		r.boxes[i] = newMailbox(&r.aborted)
	}
	return r
}

// Traffic returns the runtime's traffic meter.
func (r *Runtime) Traffic() *Traffic { return r.traffic }

// abortPanic is the value a blocked collective receive panics with
// when a peer rank has died: not a failure of its own, just the
// unwinding mechanism. Run filters these cascades out in favour of
// the root-cause rank's panic.
type abortPanic struct{}

// RankPanic is what Run re-panics with on the caller when a rank's
// function panicked: the originating rank, its original panic value,
// and the goroutine stack captured at the rank's recovery point. It
// implements error so recover wrappers upstream (internal/guard) can
// log and record it without string surgery.
type RankPanic struct {
	Rank  int
	Value any
	Stack []byte
}

// Error implements error (the stack is carried, not printed).
func (p *RankPanic) Error() string {
	return fmt.Sprintf("par: rank %d panicked: %v", p.Rank, p.Value)
}

// abort unblocks every rank parked in a mailbox receive: the shared
// flag flips and every mailbox's waiters are woken, each then
// panicking with abortPanic and unwinding through its rank's recover.
// Idempotent; called from the first panicking rank's deferred recover.
func (r *Runtime) abort() {
	if r.aborted.Swap(true) {
		return
	}
	for _, mb := range r.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Run launches fn on every rank concurrently and waits for all ranks to
// finish. Each invocation receives that rank's communicator. If
// any rank panics, every peer blocked in a collective is unwound (so
// Run always returns even when the panic strikes mid-exchange) and Run
// re-panics on the caller with a *RankPanic carrying the root-cause
// rank, its panic value and its stack. The runtime is not reusable
// after an aborted Run: mailboxes may hold orphaned messages.
func (r *Runtime) Run(fn func(c *Comm)) {
	r.aborted.Store(false)
	var wg sync.WaitGroup
	panics := make([]*RankPanic, r.size)
	for rank := 0; rank < r.size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = &RankPanic{Rank: rank, Value: p, Stack: debug.Stack()}
					r.abort()
				}
			}()
			fn(&Comm{rt: r, rank: rank, size: r.size})
		}(rank)
	}
	wg.Wait()
	// Prefer a root cause — a rank that died on its own panic — over
	// ranks merely unwound by the abort broadcast.
	var first, cascade *RankPanic
	for _, p := range panics {
		if p == nil {
			continue
		}
		if _, cascaded := p.Value.(abortPanic); cascaded {
			if cascade == nil {
				cascade = p
			}
			continue
		}
		if first == nil {
			first = p
		}
	}
	if first == nil {
		first = cascade
	}
	if first != nil {
		panic(first)
	}
}

// Comm is one rank's communicator handle; it spans all runtime ranks,
// the only communicator there is. Methods must only be called from the
// goroutine owning the rank, as in MPI.
type Comm struct {
	rt   *Runtime
	rank int
	size int
	// gatherSeq numbers this rank's GatherConsume calls; SPMD order
	// keeps it identical across ranks, giving each collective its own
	// tag (see tagGatherConsumeBase).
	gatherSeq int
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

func payloadSize(data any) int {
	switch d := data.(type) {
	case nil:
		return 0
	case []float64:
		return 8 * len(d)
	case []float32:
		return 4 * len(d)
	case []int64:
		return 8 * len(d)
	case []int32:
		return 4 * len(d)
	case []int:
		return 8 * len(d)
	case []byte:
		return len(d)
	case float64, int64, int:
		return 8
	case int32, float32:
		return 4
	default:
		// Unknown payloads are metered at a nominal word; callers that
		// care about metering use typed helpers.
		return 8
	}
}

// Send delivers data to dest with the given tag. It never blocks (the
// simulated network has unbounded buffering), matching a guaranteed-
// buffered MPI send.
func (c *Comm) Send(dest, tag int, data any) {
	if dest < 0 || dest >= c.size {
		panic(fmt.Sprintf("par: Send dest %d out of range [0,%d)", dest, c.size))
	}
	n := payloadSize(data)
	c.rt.traffic.addSend(c.rank, n)
	c.rt.boxes[dest].put(message{src: c.rank, tag: tag, data: data, size: n})
}

// Recv blocks until a message with matching source and tag arrives and
// returns its payload and actual source. src may be AnySource.
func (c *Comm) Recv(src, tag int) (data any, from int) {
	m := c.rt.boxes[c.rank].get(src, tag)
	return m.data, m.src
}

// SendF64 sends a float64 slice, copied so the caller may reuse its
// buffer immediately.
func (c *Comm) SendF64(dest, tag int, data []float64) {
	c.Send(dest, tag, append([]float64(nil), data...))
}

// SendF64Pooled is SendF64 with the transport copy drawn from the
// runtime's buffer pool instead of a fresh allocation. The receiver
// must hand the payload back with Recycle once done with it, or the
// buffer is simply lost to the GC — correctness never depends on the
// recycle, only steady-state allocation behaviour does.
func (c *Comm) SendF64Pooled(dest, tag int, data []float64) {
	buf := c.rt.pool.get(len(data))
	copy(buf, data)
	c.Send(dest, tag, buf)
}

// Recycle returns a received float64 payload to the runtime's buffer
// pool. Only call it when the slice (and any sub-slice of it) will not
// be used again.
func (c *Comm) Recycle(data []float64) {
	c.rt.pool.put(data)
}

// RecvF64 receives a float64 slice.
func (c *Comm) RecvF64(src, tag int) ([]float64, int) {
	d, from := c.Recv(src, tag)
	if d == nil {
		return nil, from
	}
	return d.([]float64), from
}

// SendBytes sends a byte slice (copied).
func (c *Comm) SendBytes(dest, tag int, data []byte) {
	c.Send(dest, tag, append([]byte(nil), data...))
}

// RecvBytes receives a byte slice.
func (c *Comm) RecvBytes(src, tag int) ([]byte, int) {
	d, from := c.Recv(src, tag)
	if d == nil {
		return nil, from
	}
	return d.([]byte), from
}

// SendInts sends an int slice (copied).
func (c *Comm) SendInts(dest, tag int, data []int) {
	c.Send(dest, tag, append([]int(nil), data...))
}

// RecvInts receives an int slice.
func (c *Comm) RecvInts(src, tag int) ([]int, int) {
	d, from := c.Recv(src, tag)
	if d == nil {
		return nil, from
	}
	return d.([]int), from
}
