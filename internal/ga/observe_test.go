package ga

import (
	"testing"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

type poolRecorder struct {
	inserted []int64
	sizes    []int
	evicted  []int64
	rejected []int64
}

func (r *poolRecorder) PoolInserted(e int64, size int) {
	r.inserted = append(r.inserted, e)
	r.sizes = append(r.sizes, size)
}
func (r *poolRecorder) PoolEvicted(e int64)  { r.evicted = append(r.evicted, e) }
func (r *poolRecorder) PoolRejected(e int64) { r.rejected = append(r.rejected, e) }

func TestPoolObserver(t *testing.T) {
	rec := &poolRecorder{}
	p := NewPool(16, 2)
	p.SetObserver(rec)
	r := rng.New(7)

	a, b, c := bitvec.Random(16, r), bitvec.Random(16, r), bitvec.Random(16, r)
	p.Insert(a.Clone(), -10)           // admitted, size 1
	p.Insert(b, -5)                    // admitted, size 2 (full)
	p.Insert(a.Clone(), -10)           // duplicate → rejected
	p.Insert(c, -20)                   // admitted, evicts -5
	p.Insert(bitvec.Random(16, r), -1) // worse than worst → rejected

	if want := []int64{-10, -5, -20}; !equalInt64(rec.inserted, want) {
		t.Errorf("inserted = %v, want %v", rec.inserted, want)
	}
	if want := []int{1, 2, 2}; !equalInt(rec.sizes, want) {
		t.Errorf("sizes = %v, want %v", rec.sizes, want)
	}
	if want := []int64{-5}; !equalInt64(rec.evicted, want) {
		t.Errorf("evicted = %v, want %v", rec.evicted, want)
	}
	if want := []int64{-10, -1}; !equalInt64(rec.rejected, want) {
		t.Errorf("rejected = %v, want %v", rec.rejected, want)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInt(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
