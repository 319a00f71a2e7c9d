package search

import (
	"testing"
	"testing/quick"

	"abs/internal/qubo"
	"abs/internal/rng"
)

// refWindowSelect is the original element-at-a-time OffsetWindow scan,
// kept as the semantic reference for the batched two-segment version:
// first strict minimum in window scan order.
func refWindowSelect(d []int32, offset, l int) int {
	n := len(d)
	best := offset % n
	bestD := d[best]
	for t := 1; t < l; t++ {
		i := offset + t
		if i >= n {
			i -= n
		}
		if d[i] < bestD {
			best, bestD = i, d[i]
		}
	}
	return best
}

// TestQuickOffsetWindowMatchesReference sweeps random delta vectors —
// drawn from a narrow range so value ties are common — through the
// batched Select and the scalar reference, across wrapped and
// unwrapped windows of every alignment.
func TestQuickOffsetWindowMatchesReference(t *testing.T) {
	f := func(seed uint64, off uint16, lseed uint16) bool {
		n := 2 + int(seed%300)
		r := rng.New(seed)
		p := qubo.New(n)
		for i := 0; i < n; i++ {
			p.SetWeight(i, i, int16(r.Intn(9)-4)) // ties everywhere
		}
		s := qubo.NewZeroState(p)
		l := 1 + int(lseed)%n
		pol := &OffsetWindow{L: l, offset: int(off) % n}
		want := refWindowSelect(s.Deltas(), int(off)%n, l)
		if got := pol.Select(s); got != want {
			t.Logf("n=%d offset=%d l=%d: got %d, want %d", n, int(off)%n, l, got, want)
			return false
		}
		// Greedy must agree with the full-width window from offset 0.
		if g := (Greedy{}).Select(s); g != refWindowSelect(s.Deltas(), 0, n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
