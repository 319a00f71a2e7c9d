package telemetry

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the le (upper-inclusive)
// semantics: a value exactly on a bound lands in that bound's bucket,
// epsilon above it spills into the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("abs_h", "h", []float64{1, 10, 100})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0},
		{1, 0}, // exactly on the first bound: le="1"
		{math.Nextafter(1, 2), 1},
		{10, 1},
		{10.0001, 2},
		{100, 2},
		{100.5, 3}, // +Inf overflow
		{-5, 0},    // below the first bound still counts in it
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.snapshot("abs_h")
	want := make([]uint64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d count = %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", s.Count, len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if math.Abs(s.Sum-sum) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, sum)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 10, 4)
	want := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	if len(b) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i])/want[i] > 1e-12 {
			t.Errorf("bound %d = %v, want %v", i, b[i], want[i])
		}
	}
	if !sortedBounds(b) {
		t.Error("LogBuckets produced non-increasing bounds")
	}
}

func TestBadBucketsPanic(t *testing.T) {
	r := NewRegistry()
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			r.Histogram("abs_bad_"+name, "bad", bounds)
		}()
	}
}
