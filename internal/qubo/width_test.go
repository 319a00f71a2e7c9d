package qubo

import (
	"math"
	"reflect"
	"testing"

	"abs/internal/rng"
)

// TestDeltaWidthBound pins the arithmetic that lets every engine keep Δ
// in int32: with n ≤ MaxBits and weights no wider than int16,
// |Δ_i| ≤ |W_ii| + 2·Σ_{j≠i} |W_ij| ≤ maxW·(2·MaxBits − 1), and that
// must stay below math.MaxInt32, the batched path's flipped-bit
// sentinel. Raising MaxBits or widening the weight type fails here.
func TestDeltaWidthBound(t *testing.T) {
	p := New(1)
	maxW := int64(1) << (reflect.TypeOf(p.Weight(0, 0)).Bits() - 1) // |math.MinInt16| for int16
	if maxW != 32768 {
		t.Errorf("weight magnitude %d: the int32 Δ bound assumes int16 weights", maxW)
	}
	if !(int64(MaxBits)*(2*MaxBits-1) < math.MaxInt32) {
		t.Fatalf("|Δ| ≤ 32768·(2·%d − 1) = %d does not fit below math.MaxInt32",
			MaxBits, int64(MaxBits)*(2*MaxBits-1))
	}
}

// TestEnginesAtExtremeWeights walks the scalar, batched and sparse
// engines through the same 2,000 flips on n = 2048 (an 8 MiB matrix)
// with every weight −32768, the most negative int16: each flip moves
// every Δ by the largest step the weight type allows, and every bit
// still at 0 ties with all the others, so the tie-break is exercised
// on every selection. Energies and every Δ must agree after each flip,
// and CheckConsistency — the int64 oracle — runs every 64 flips.
func TestEnginesAtExtremeWeights(t *testing.T) {
	const n = 2048
	p := New(n)
	for i := range p.w {
		p.w[i] = math.MinInt16
	}
	scalar := newZeroStateMode(p, false)
	batched := newZeroStateMode(p, true)
	sparse := NewSparseZeroState(Sparsify(p))
	r := rng.New(2048)
	offset := 0
	for step := 0; step < 2000; step++ {
		var k int
		if step%4 == 3 {
			k = r.Intn(n) // sometimes walk back uphill
		} else {
			l := 1 + r.Intn(n)
			k = windowMinSelect(scalar.Deltas(), offset, l)
			offset = (offset + l) % n
		}
		scalar.Flip(k)
		batched.Flip(k)
		sparse.Flip(k)
		if scalar.Energy() != batched.Energy() || scalar.Energy() != sparse.Energy() {
			t.Fatalf("step %d: energies scalar %d, batched %d, sparse %d",
				step, scalar.Energy(), batched.Energy(), sparse.Energy())
		}
		sd, bd, pd := scalar.Deltas(), batched.Deltas(), sparse.Deltas()
		for i := range sd {
			if sd[i] != bd[i] || sd[i] != pd[i] {
				t.Fatalf("step %d: Δ_%d scalar %d, batched %d, sparse %d", step, i, sd[i], bd[i], pd[i])
			}
		}
		if step%64 == 63 {
			engines := []interface{ CheckConsistency() error }{scalar, batched, sparse}
			for i, name := range []string{"scalar", "batched", "sparse"} {
				if err := engines[i].CheckConsistency(); err != nil {
					t.Fatalf("step %d: %s: %v", step, name, err)
				}
			}
		}
	}
	if scalar.BestEnergy() != batched.BestEnergy() {
		t.Errorf("best energy scalar %d, batched %d", scalar.BestEnergy(), batched.BestEnergy())
	}
}
