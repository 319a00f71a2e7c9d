package qubo

import (
	"math"
	"sync/atomic"

	"abs/internal/bitvec"
	"abs/internal/dkernel"
)

// The dense engine runs one of two flip implementations that are
// bit-for-bit equivalent on every observable (energy, deltas, flips,
// best-solution sequence):
//
//   - scalar: the original per-bit loop of Eq. (6) with an interleaved
//     running argmin — the paper's kernel transcribed literally;
//   - batched: the dkernel tile kernel — pre-scaled sign factors, the
//     row walked in cache-blocked 64-element tiles, per-tile minimum
//     values only, and the argmin's index (the tie-break) resolved
//     lazily on the single winning tile, and only on the rare flips
//     that actually improve the best-known neighbour.
//
// The batched path is the default; the scalar path remains both as the
// reference for the equivalence tests/fuzzers and as the measured
// baseline of `abs-bench -dense-report`. See DESIGN.md §14 for the
// equivalence argument.
var denseKernelScalar atomic.Bool

// SetDenseKernelScalar forces (or releases) the scalar reference flip
// path for subsequently constructed dense states. It exists for the
// dense kernel benchmark report and for tests; production callers
// never need it. Existing states keep the path they were built with.
func SetDenseKernelScalar(force bool) { denseKernelScalar.Store(force) }

// DenseKernelName reports the flip implementation newly constructed
// dense states will use: "scalar" when forced, otherwise the active
// dkernel implementation ("avx2", "generic", ...).
func DenseKernelName() string {
	if denseKernelScalar.Load() {
		return "scalar"
	}
	return dkernel.Name()
}

// initBatched equips a state positioned at its current x with the
// batched-kernel side structures: the pre-scaled sign register file
// sgnc[i] = 2·(1−2x_i) and the per-tile minima scratch buffer.
func (s *State) initBatched() {
	n := s.p.n
	s.batched = true
	s.sgnc = make([]int16, n)
	for i := 0; i < n; i++ {
		s.sgnc[i] = int16(2 - 4*s.x.Bit(i))
	}
	s.tmins = make([]int32, n/dkernel.TileWidth)
}

// flipBatched is Flip via the batched delta-evaluation kernel.
func (s *State) flipBatched(k int) {
	n := s.p.n
	row := s.p.w[k*n : (k+1)*n]
	d := s.delta

	oldDk := d[k]
	oldSgn := s.sgnc[k]
	neg := oldSgn < 0 // sk = 1−2x_k < 0 iff x_k = 1

	// Exclude bit k from both the update and the minimum by sentinel:
	// a zero sign entry keeps d[k] untouched at MaxInt32, which cannot
	// win a tile minimum (|Δ| ≤ 2¹⁵·(2·2¹⁵ − 1) < MaxInt32, see State).
	d[k] = math.MaxInt32
	s.sgnc[k] = 0

	tailMin := dkernel.FlipTiles(d, row, s.sgnc, s.tmins, neg)

	// Fold tile minima in ascending order with a strictly-smaller
	// comparison: the winning tile is the first tile containing the
	// global minimum, so first-occurrence tie-break order survives the
	// two-level reduction.
	minD := int32(math.MaxInt32)
	minTile := -1
	for t, m := range s.tmins {
		if m < minD {
			minD, minTile = m, t
		}
	}
	inTail := false
	if tailMin < minD {
		minD, inTail = tailMin, true
	}

	d[k] = -oldDk
	s.sgnc[k] = -oldSgn
	s.energy += int64(oldDk)
	s.x.Flip(k)
	s.flips++

	if s.energy < s.bestE {
		s.recordBest(s.x, s.energy)
	}
	if minD != math.MaxInt32 && s.energy+int64(minD) < s.bestE {
		s.recordBestNeighbour(s.locateMin(k, minD, minTile, inTail), s.energy+int64(minD))
	}
}

// locateMin resolves the argmin index after the fact: scan only the
// winning tile (or the ragged tail) for the first occurrence of the
// minimum value, skipping bit k, whose slot now holds −oldΔk and may
// collide with the minimum by value.
func (s *State) locateMin(k int, minD int32, minTile int, inTail bool) int {
	var lo, hi int
	if inTail {
		lo, hi = len(s.tmins)*dkernel.TileWidth, s.p.n
	} else {
		lo, hi = minTile*dkernel.TileWidth, (minTile+1)*dkernel.TileWidth
	}
	i := lo + dkernel.FirstEq(s.delta[lo:hi], minD)
	if i == k {
		i = k + 1 + dkernel.FirstEq(s.delta[k+1:hi], minD)
	}
	return i
}

// newZeroStateMode is NewZeroState with the flip path pinned — the
// hook the equivalence tests and fuzzers use to run both kernels side
// by side regardless of the process-wide setting.
func newZeroStateMode(p *Problem, batched bool) *State {
	s := &State{
		p:     p,
		x:     bitvec.New(p.n),
		delta: make([]int32, p.n),
		bestE: math.MaxInt64,
	}
	for i := 0; i < p.n; i++ {
		s.delta[i] = int32(p.w[i*p.n+i])
	}
	if batched {
		s.initBatched()
	}
	return s
}

// newStateMode is NewState with the flip path pinned.
func newStateMode(p *Problem, x *bitvec.Vector, batched bool) *State {
	p.checkLen(x)
	s := &State{
		p:      p,
		x:      x.Clone(),
		delta:  make([]int32, p.n),
		energy: p.Energy(x),
		bestE:  math.MaxInt64,
	}
	for k, d := range p.DeltaAll(x, nil) {
		s.delta[k] = int32(d)
	}
	if batched {
		s.initBatched()
	}
	return s
}
