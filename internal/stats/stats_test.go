package stats

import (
	"math"
	"testing"
	"time"
)

func TestTimer(t *testing.T) {
	var tm Timer
	tm.Start()
	time.Sleep(2 * time.Millisecond)
	tm.Stop()
	if tm.Count() != 1 {
		t.Errorf("count = %d", tm.Count())
	}
	if tm.Total() < time.Millisecond {
		t.Errorf("total = %v too small", tm.Total())
	}
	if tm.Mean() != tm.Total() {
		t.Errorf("mean of one interval should equal total")
	}
	// Stop without start is a no-op.
	var t2 Timer
	t2.Stop()
	if t2.Count() != 0 {
		t.Error("stop without start counted")
	}
}

func TestSummarise(t *testing.T) {
	s := Summarise([]float64{1, 2, 3, 4})
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.N != 4 {
		t.Errorf("summary = %+v", s)
	}
	wantStd := math.Sqrt(1.25)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
	if e := Summarise(nil); e.N != 0 {
		t.Errorf("empty summary = %+v", e)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{1, 1, 1}); got != 1 {
		t.Errorf("perfect balance = %v", got)
	}
	if got := Imbalance([]float64{2, 1, 0}); got != 2 {
		t.Errorf("imbalance = %v, want 2", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero imbalance = %v", got)
	}
	if got := ImbalanceI64([]int64{4, 2, 0}); got != 2 {
		t.Errorf("int imbalance = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarise([]float64{1, 2})
	if s.String() == "" {
		t.Error("empty string")
	}
}
