// Package dkernel is the batched delta-evaluation kernel behind the
// dense flip hot path: the inner loop of Eq. (6) restructured from a
// per-bit scan into cache-blocked tiles so that a whole candidate
// window is evaluated per pass.
//
// The paper's GPU kernel updates all n deltas per flip and finds the
// minimum in the same sweep; on a CPU the equivalent loop spends most
// of its cycles extracting bit values and mispredicting the running-
// argmin branch. The batched kernel removes both costs:
//
//   - the φ(x_i) = 1−2x_i factors of Eq. (6) are kept as a pre-scaled
//     sign array sgnc[i] = 2·(1−2x_i) ∈ {+2, −2}, so the per-element
//     work is one sign, one shift and one add — no bit extraction;
//   - deltas are int32, the width of the paper's per-thread registers
//     (§3.2): with n ≤ 2¹⁵ and int16 weights every |Δ| fits, so a
//     vector register holds 8 lanes and the running minimum is one
//     packed min per 8 elements, with no widening;
//   - the update runs over 64-element row tiles and records only each
//     tile's minimum VALUE; the argmin's index (the tie-break) is
//     resolved lazily, once, by rescanning the single winning tile —
//     the reduction cost is amortized across the whole batch instead
//     of being paid per element (cuGenOpt and the GPU-SA-for-QAP work
//     use exactly this batched-delta structure, see PAPERS.md);
//   - on amd64 with AVX2 the int32 tile body is hand-written assembly
//     (flip_avx2_amd64.s); everywhere else, and for int64 deltas, a
//     pure-Go tile loop with hoisted bounds checks is used.
//
// Both implementations compute bit-for-bit what the scalar loop
// computes: the same deltas, the same minimum value, and — because
// tiles are scanned in ascending index order with a strictly-smaller
// comparison — the same first-occurrence tie-break. The agreement
// tests and the qubo-level fuzz target are the evidence.
package dkernel

import "math"

// TileWidth is the row-tile size of the batched kernel: 64 elements
// keep one tile of deltas (256 B) plus its row slice (128 B) and sign
// slice (128 B) to a few cache lines per stride, and make the per-flip
// tile-minima buffer n/64 entries — small enough that scanning it is
// noise next to the tile pass itself.
const TileWidth = 64

// FlipTiles applies one flip's delta updates over d in batched tiles:
//
//	d[i] += sign · sgnc[i] · row[i]   sign = −1 if neg
//
// for every i in [0, len(d)), where sgnc carries the pre-scaled φ
// factors: ±2, with Eq. (6)'s factor 2 folded in, or 0, which makes
// the element inert — the sentinel used to exclude the flipped bit. No
// other sgnc value is allowed. The minimum of each complete
// TileWidth-element tile is written to tmins[t]; the function returns
// the minimum over the ragged tail beyond the last full tile
// (math.MaxInt32 when the tail is empty).
//
// The engines keep Δ at int32, and that instantiation runs the AVX2
// body where it is available. The int64 instantiation serves callers
// that still hold int64 deltas and always runs the portable loop. In
// either width every value must fit int32; the two then agree element
// for element.
//
// len(row) and len(sgnc) must equal len(d); len(tmins) must be at
// least len(d)/TileWidth.
func FlipTiles[T int32 | int64](d []T, row []int16, sgnc []int16, tmins []T, neg bool) T {
	nt := len(d) / TileWidth
	if nt > 0 {
		if d32, ok := any(d).([]int32); ok && hasAccel {
			flipTilesAccel(d32, row, sgnc, any(tmins).([]int32), nt, neg)
		} else {
			flipTilesGeneric(d[:nt*TileWidth], row, sgnc, tmins, neg)
		}
	}
	return flipTail(d, row, sgnc, nt*TileWidth, neg)
}

// flipTail is the scalar epilogue over [lo, len(d)); it returns the
// minimum of the updated tail values.
func flipTail[T int32 | int64](d []T, row []int16, sgnc []int16, lo int, neg bool) T {
	min := T(math.MaxInt32)
	if neg {
		for i := lo; i < len(d); i++ {
			v := d[i] - T(int32(sgnc[i])*int32(row[i]))
			d[i] = v
			if v < min {
				min = v
			}
		}
	} else {
		for i := lo; i < len(d); i++ {
			v := d[i] + T(int32(sgnc[i])*int32(row[i]))
			d[i] = v
			if v < min {
				min = v
			}
		}
	}
	return min
}

// flipTilesGeneric is the portable tile loop: full tiles only, bounds
// checks hoisted by explicit slice reshaping so the compiler keeps the
// inner body branch-free apart from the running tile minimum.
func flipTilesGeneric[T int32 | int64](d []T, row []int16, sgnc []int16, tmins []T, neg bool) {
	nt := len(d) / TileWidth
	for t := 0; t < nt; t++ {
		lo := t * TileWidth
		dt := d[lo : lo+TileWidth : lo+TileWidth]
		rt := row[lo : lo+TileWidth : lo+TileWidth]
		st := sgnc[lo : lo+TileWidth : lo+TileWidth]
		min := T(math.MaxInt32)
		if neg {
			for i := range dt {
				v := dt[i] - T(int32(st[i])*int32(rt[i]))
				dt[i] = v
				if v < min {
					min = v
				}
			}
		} else {
			for i := range dt {
				v := dt[i] + T(int32(st[i])*int32(rt[i]))
				dt[i] = v
				if v < min {
					min = v
				}
			}
		}
		tmins[t] = min
	}
}

// MinVal returns the minimum value of d, or math.MaxInt32 when d is
// empty. It is the value half of the window-candidate scan: selection
// policies find the window minimum's VALUE in a batched pass and
// resolve its position with FirstEq only where it is actually needed.
func MinVal(d []int32) int32 {
	if len(d) >= minAccelThreshold && hasAccel {
		nv := len(d) &^ 7
		min := minValAccel(d[:nv])
		for _, v := range d[nv:] {
			if v < min {
				min = v
			}
		}
		return min
	}
	return minValGeneric(d)
}

func minValGeneric(d []int32) int32 {
	min := int32(math.MaxInt32)
	for _, v := range d {
		if v < min {
			min = v
		}
	}
	return min
}

// FirstEq returns the smallest index i with d[i] == v, or −1. Paired
// with MinVal it reproduces exactly the ascending strictly-smaller
// argmin scan: the first occurrence of the minimum value is the index
// that scan would keep.
func FirstEq(d []int32, v int32) int {
	if len(d) >= minAccelThreshold && hasAccel {
		nv := len(d) &^ 7
		if idx := firstEqAccel(d[:nv], v); idx >= 0 {
			return idx
		}
		for i := nv; i < len(d); i++ {
			if d[i] == v {
				return i
			}
		}
		return -1
	}
	return firstEqGeneric(d, v)
}

func firstEqGeneric(d []int32, v int32) int {
	for i, x := range d {
		if x == v {
			return i
		}
	}
	return -1
}

// minAccelThreshold is the slice length below which the call overhead
// of the assembly routines beats their per-element advantage.
const minAccelThreshold = 16

// MinFirst returns the first index attaining the minimum of d and that
// minimum, or (−1, math.MaxInt32) when d is empty — the batched
// equivalent of `for i { if d[i] < best }`.
func MinFirst(d []int32) (int, int32) {
	if len(d) == 0 {
		return -1, math.MaxInt32
	}
	v := MinVal(d)
	return FirstEq(d, v), v
}

// Accelerated reports whether an architecture-specific kernel is
// active (false means the portable Go tiles are in use).
func Accelerated() bool { return hasAccel }

// Name identifies the active kernel implementation ("avx2" or
// "generic"); reports embed it so a measurement is self-describing.
func Name() string {
	if hasAccel {
		return accelName
	}
	return "generic"
}
