package par

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSendRecvBasic(t *testing.T) {
	rt := NewRuntime(2)
	rt.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendF64(1, TagUser, []float64{1, 2, 3})
		} else {
			d, from := c.RecvF64(0, TagUser)
			if from != 0 {
				t.Errorf("from = %d, want 0", from)
			}
			if len(d) != 3 || d[0] != 1 || d[1] != 2 || d[2] != 3 {
				t.Errorf("payload = %v", d)
			}
		}
	})
}

func TestSendF64CopiesBuffer(t *testing.T) {
	rt := NewRuntime(2)
	rt.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.SendF64(1, TagUser, buf)
			buf[0] = -1 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			d, _ := c.RecvF64(0, TagUser)
			if d[0] != 42 {
				t.Errorf("got %v, want 42 (send must copy)", d[0])
			}
		}
	})
}

func TestMessageOrderingPerSourceTag(t *testing.T) {
	rt := NewRuntime(2)
	const n = 100
	rt.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.SendF64(1, TagUser, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				d, _ := c.RecvF64(0, TagUser)
				if int(d[0]) != i {
					t.Fatalf("message %d arrived out of order: got %v", i, d[0])
				}
			}
		}
	})
}

func TestRecvAnySource(t *testing.T) {
	rt := NewRuntime(4)
	rt.Run(func(c *Comm) {
		if c.Rank() != 0 {
			c.SendF64(0, TagUser, []float64{float64(c.Rank())})
			return
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			d, from := c.RecvF64(AnySource, TagUser)
			if int(d[0]) != from {
				t.Errorf("payload %v does not match source %d", d[0], from)
			}
			seen[from] = true
		}
		if len(seen) != 3 {
			t.Errorf("expected 3 distinct sources, got %v", seen)
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	rt := NewRuntime(2)
	rt.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendF64(1, TagUser+1, []float64{1})
			c.SendF64(1, TagUser+2, []float64{2})
		} else {
			// Receive in reverse tag order: matching must be by tag,
			// not arrival order.
			d2, _ := c.RecvF64(0, TagUser+2)
			d1, _ := c.RecvF64(0, TagUser+1)
			if d1[0] != 1 || d2[0] != 2 {
				t.Errorf("tag matching broken: %v %v", d1, d2)
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		rt := NewRuntime(size)
		var phase atomic.Int64
		rt.Run(func(c *Comm) {
			for iter := 0; iter < 5; iter++ {
				phase.Add(1)
				c.Barrier()
				want := int64((iter + 1) * size)
				if got := phase.Load(); got != want {
					t.Errorf("size=%d iter=%d: phase=%d want %d", size, iter, got, want)
				}
				c.Barrier()
			}
		})
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16} {
		rt := NewRuntime(size)
		for root := 0; root < size; root++ {
			root := root
			rt.Run(func(c *Comm) {
				var in []float64
				if c.Rank() == root {
					in = []float64{float64(root), 3.5}
				}
				out := c.BcastF64(root, in)
				if len(out) != 2 || out[0] != float64(root) || out[1] != 3.5 {
					t.Errorf("size=%d root=%d rank=%d: got %v", size, root, c.Rank(), out)
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 11} {
		rt := NewRuntime(size)
		for root := 0; root < size; root += 2 {
			root := root
			rt.Run(func(c *Comm) {
				in := []float64{float64(c.Rank()), 1}
				out := c.Reduce(root, OpSum, in)
				if c.Rank() == root {
					wantSum := float64(size*(size-1)) / 2
					if out[0] != wantSum || out[1] != float64(size) {
						t.Errorf("size=%d root=%d: got %v", size, root, out)
					}
				} else if out != nil {
					t.Errorf("non-root rank %d got non-nil %v", c.Rank(), out)
				}
			})
		}
	}
}

func TestReduceDoesNotMutateInput(t *testing.T) {
	rt := NewRuntime(4)
	rt.Run(func(c *Comm) {
		in := []float64{float64(c.Rank())}
		c.Reduce(0, OpSum, in)
		if in[0] != float64(c.Rank()) {
			t.Errorf("rank %d: input mutated to %v", c.Rank(), in[0])
		}
	})
}

func TestAllreduceMinMax(t *testing.T) {
	rt := NewRuntime(6)
	rt.Run(func(c *Comm) {
		x := float64(c.Rank())
		if got := c.AllreduceScalar(OpMax, x); got != 5 {
			t.Errorf("max: got %v want 5", got)
		}
		if got := c.AllreduceScalar(OpMin, x); got != 0 {
			t.Errorf("min: got %v want 0", got)
		}
	})
}

// TestAllreduceMatchesSerial is the property test required by the
// design: a parallel allreduce must equal the serial reduction for
// random vectors.
func TestAllreduceMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(9)
		n := 1 + rng.Intn(20)
		data := make([][]float64, size)
		want := make([]float64, n)
		for r := range data {
			data[r] = make([]float64, n)
			for i := range data[r] {
				data[r][i] = rng.NormFloat64()
				want[i] += data[r][i]
			}
		}
		ok := true
		rt := NewRuntime(size)
		rt.Run(func(c *Comm) {
			got := c.Allreduce(OpSum, data[c.Rank()])
			for i := range got {
				// Tree order may differ from serial order; allow fp slack.
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGatherScatterRoundTrip: Gather delivers every rank's ragged
// vector to root, and nothing to the other ranks.
func TestGatherScatterRoundTrip(t *testing.T) {
	for _, size := range []int{1, 3, 6} {
		rt := NewRuntime(size)
		rt.Run(func(c *Comm) {
			// Each rank contributes a vector of its rank repeated rank+1 times.
			in := make([]float64, c.Rank()+1)
			for i := range in {
				in[i] = float64(c.Rank())
			}
			all := c.Gather(0, in)
			if c.Rank() == 0 {
				for r, v := range all {
					if len(v) != r+1 {
						t.Errorf("gather rank %d len=%d want %d", r, len(v), r+1)
					}
					for _, x := range v {
						if x != float64(r) {
							t.Errorf("gather rank %d value %v", r, x)
						}
					}
				}
			} else if all != nil {
				t.Errorf("gather rank %d: non-root got %v", c.Rank(), all)
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	const size = 5
	rt := NewRuntime(size)
	rt.Run(func(c *Comm) {
		out := make([][]float64, size)
		for i := range out {
			out[i] = []float64{float64(c.Rank()*100 + i)}
		}
		in := c.Alltoall(out)
		for src, v := range in {
			want := float64(src*100 + c.Rank())
			if len(v) != 1 || v[0] != want {
				t.Errorf("rank %d from %d: got %v want %v", c.Rank(), src, v, want)
			}
		}
	})
}

func TestAlltoallEmptyParts(t *testing.T) {
	const size = 4
	rt := NewRuntime(size)
	rt.Run(func(c *Comm) {
		out := make([][]float64, size)
		// Only send to rank (self+1)%size.
		out[(c.Rank()+1)%size] = []float64{float64(c.Rank())}
		in := c.Alltoall(out)
		prev := (c.Rank() + size - 1) % size
		for src, v := range in {
			if src == prev {
				if len(v) != 1 || v[0] != float64(prev) {
					t.Errorf("rank %d: got %v from %d", c.Rank(), v, src)
				}
			} else if len(v) != 0 {
				t.Errorf("rank %d: unexpected data %v from %d", c.Rank(), v, src)
			}
		}
	})
}

func TestTrafficMetering(t *testing.T) {
	rt := NewRuntime(2)
	rt.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendF64(1, TagUser, make([]float64, 10)) // 80 bytes
		} else {
			c.RecvF64(0, TagUser)
		}
	})
	if got := rt.Traffic().Bytes(); got != 80 {
		t.Errorf("bytes = %d, want 80", got)
	}
	if got := rt.Traffic().Messages(); got != 1 {
		t.Errorf("messages = %d, want 1", got)
	}
	per := rt.Traffic().PerRankBytes()
	if per[0] != 80 || per[1] != 0 {
		t.Errorf("per-rank = %v", per)
	}
	rt.Traffic().Reset()
	if rt.Traffic().Bytes() != 0 || rt.Traffic().Messages() != 0 {
		t.Error("reset failed")
	}
}

func TestGatherBytesAndInts(t *testing.T) {
	rt := NewRuntime(3)
	rt.Run(func(c *Comm) {
		bs := c.GatherBytes(0, []byte{byte(c.Rank())})
		is := c.GatherInts(0, []int{c.Rank() * 7})
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if bs[r][0] != byte(r) {
					t.Errorf("bytes[%d] = %v", r, bs[r])
				}
				if is[r][0] != r*7 {
					t.Errorf("ints[%d] = %v", r, is[r])
				}
			}
		} else if bs != nil || is != nil {
			t.Error("non-root should get nil")
		}
	})
}

// TestBcastBytesInts: BcastInts hands every rank root's vector.
func TestBcastBytesInts(t *testing.T) {
	rt := NewRuntime(5)
	rt.Run(func(c *Comm) {
		var i []int
		if c.Rank() == 2 {
			i = []int{1, 2, 3}
		}
		gi := c.BcastInts(2, i)
		if len(gi) != 3 || gi[2] != 3 {
			t.Errorf("rank %d: ints %v", c.Rank(), gi)
		}
	})
}

func TestHighestPow2LE(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 4, 5: 4, 7: 4, 8: 8, 9: 8, 1023: 512, 1024: 1024}
	keys := make([]int, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if got := highestPow2LE(k); got != cases[k] {
			t.Errorf("highestPow2LE(%d) = %d, want %d", k, got, cases[k])
		}
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate from Run")
		}
	}()
	rt := NewRuntime(2)
	rt.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestPayloadSize(t *testing.T) {
	cases := []struct {
		data any
		want int
	}{
		{nil, 0},
		{[]float64{1, 2}, 16},
		{[]float32{1}, 4},
		{[]int64{1, 2, 3}, 24},
		{[]int32{1}, 4},
		{[]int{1, 2}, 16},
		{[]byte("abc"), 3},
		{3.14, 8},
		{int32(1), 4},
	}
	for _, tc := range cases {
		if got := payloadSize(tc.data); got != tc.want {
			t.Errorf("payloadSize(%T) = %d, want %d", tc.data, got, tc.want)
		}
	}
}
