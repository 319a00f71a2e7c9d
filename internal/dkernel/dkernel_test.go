package dkernel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refFlip is the trusted scalar model of one FlipTiles call: the plain
// per-element loop with an interleaved running minimum, in int64 so
// that it cannot wrap whatever the kernel under test does.
func refFlip(d []int64, row []int16, sgnc []int16, neg bool) int64 {
	sign := int64(1)
	if neg {
		sign = -1
	}
	min := int64(math.MaxInt64)
	for i := range d {
		d[i] += sign * int64(sgnc[i]) * int64(row[i])
		if d[i] < min {
			min = d[i]
		}
	}
	return min
}

// randInputs builds a random problem-row shape of length n, including
// extreme int16 weights — the −32768 corner is forced at every 17th
// element — and the 0 sentinel in the sign array.
func randInputs(r *rand.Rand, n int) (d []int32, row []int16, sgnc []int16) {
	d = make([]int32, n)
	row = make([]int16, n)
	sgnc = make([]int16, n)
	for i := range d {
		d[i] = int32(r.Intn(1<<20) - 1<<19)
		row[i] = int16(r.Intn(1<<16) - 1<<15) // full int16 range
		if i%17 == 5 {
			row[i] = math.MinInt16
		}
		switch r.Intn(5) {
		case 0:
			sgnc[i] = 0 // the flipped-bit sentinel
		case 1, 2:
			sgnc[i] = 2
		default:
			sgnc[i] = -2
		}
	}
	return d, row, sgnc
}

// widen returns d as int64 values, the reference's representation.
func widen(d []int32) []int64 {
	w := make([]int64, len(d))
	for i, v := range d {
		w[i] = int64(v)
	}
	return w
}

// runFlip applies FlipTiles and folds the per-tile minima and tail
// minimum into the global minimum, the way callers consume it.
func runFlip(d []int32, row []int16, sgnc []int16, neg bool) int32 {
	tmins := make([]int32, len(d)/TileWidth)
	min := FlipTiles(d, row, sgnc, tmins, neg)
	for _, m := range tmins {
		if m < min {
			min = m
		}
	}
	return min
}

// sameValues reports the first index where got and the int64
// reference differ, or −1.
func sameValues(got []int32, want []int64) int {
	for i := range want {
		if int64(got[i]) != want[i] {
			return i
		}
	}
	return -1
}

func TestFlipTilesAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Sizes straddle every boundary: empty, pure tail, exact tiles,
	// ragged tails of every alignment class.
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 100, 127, 128, 129, 192, 1000, 1024, 4096, 4100} {
		for _, neg := range []bool{false, true} {
			d, row, sgnc := randInputs(r, n)
			ref := widen(d)
			want := refFlip(ref, row, sgnc, neg)
			got := runFlip(d, row, sgnc, neg)
			if n == 0 {
				want = math.MaxInt32 // both sides' empty minimum
			}
			if int64(got) != want {
				t.Errorf("n=%d neg=%v: min %d, want %d", n, neg, got, want)
			}
			if i := sameValues(d, ref); i >= 0 {
				t.Fatalf("n=%d neg=%v: delta drift at %d: %d vs %d", n, neg, i, d[i], ref[i])
			}
		}
	}
}

func TestFlipTilesSentinelStaysInert(t *testing.T) {
	// A MaxInt32 delta with a zero sign entry must pass through the
	// kernel unchanged and never win a tile minimum — the exclusion
	// mechanism qubo.State relies on for the flipped bit.
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 65, 130, 1024} {
		d, row, sgnc := randInputs(r, n)
		k := r.Intn(n)
		d[k] = math.MaxInt32
		sgnc[k] = 0
		min := runFlip(d, row, sgnc, r.Intn(2) == 0)
		if d[k] != math.MaxInt32 {
			t.Errorf("n=%d: sentinel at %d was modified: %d", n, k, d[k])
		}
		if min == math.MaxInt32 && n > 1 {
			t.Errorf("n=%d: minimum collapsed to the sentinel", n)
		}
	}
}

// deltaBound is the largest |Δ| any accepted instance can reach:
// qubo.MaxBits = 32768 variables with int16 weights give
// 32768·(2·32768 − 1), which is 32,767 below math.MaxInt32.
const deltaBound = 32768 * (2*32768 - 1)

// TestFlipTilesAtWidthBound drives every lane to ±deltaBound in a
// single update — rows of −32768 and 32767, signs ±2 — beside a 0-sign
// sentinel lane holding MaxInt32, under both flip signs. Every lane
// and every tile minimum must match the int64 reference, and the
// sentinel must never win a minimum.
func TestFlipTilesAtWidthBound(t *testing.T) {
	for _, n := range []int{64, 200, 1024} {
		for _, neg := range []bool{false, true} {
			sign := int64(1)
			if neg {
				sign = -1
			}
			d := make([]int32, n)
			row := make([]int16, n)
			sgnc := make([]int16, n)
			for i := range d {
				row[i] = []int16{math.MinInt16, math.MaxInt16}[i%2]
				sgnc[i] = []int16{2, -2}[i/2%2]
				// One update away from the bound on the update's own
				// side: +deltaBound from below, −deltaBound from above.
				u := sign * int64(sgnc[i]) * int64(row[i])
				target := int64(deltaBound)
				if u < 0 {
					target = -deltaBound
				}
				d[i] = int32(target - u)
			}
			sentinel := n / 3
			d[sentinel], sgnc[sentinel] = math.MaxInt32, 0

			ref := widen(d)
			refFlip(ref, row, sgnc, neg)
			tmins := make([]int32, n/TileWidth)
			tail := FlipTiles(d, row, sgnc, tmins, neg)
			if i := sameValues(d, ref); i >= 0 {
				t.Fatalf("n=%d neg=%v: lane %d = %d, want %d", n, neg, i, d[i], ref[i])
			}
			for ti := range tmins {
				want := int64(math.MaxInt64)
				for _, v := range ref[ti*TileWidth : (ti+1)*TileWidth] {
					want = min(want, v)
				}
				if int64(tmins[ti]) != want {
					t.Errorf("n=%d neg=%v: tile %d min %d, want %d", n, neg, ti, tmins[ti], want)
				}
				if tmins[ti] == math.MaxInt32 {
					t.Errorf("n=%d neg=%v: sentinel won tile %d", n, neg, ti)
				}
			}
			if lo := len(tmins) * TileWidth; lo < n {
				want := int64(math.MaxInt64)
				for _, v := range ref[lo:] {
					want = min(want, v)
				}
				if int64(tail) != want {
					t.Errorf("n=%d neg=%v: tail min %d, want %d", n, neg, tail, want)
				}
			}
		}
	}
}

// TestFlipTilesWidthsAgree pins the int64 instantiation — the one the
// perfbench ladder calls — to the int32 one the engines run: the same
// deltas, tile minima and tail minimum on values that fit int32.
func TestFlipTilesWidthsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 65, 129, 1024, 4100} {
		for _, neg := range []bool{false, true} {
			d32, row, sgnc := randInputs(r, n)
			d64 := widen(d32)
			t32 := make([]int32, n/TileWidth)
			t64 := make([]int64, n/TileWidth)
			m32 := FlipTiles(d32, row, sgnc, t32, neg)
			m64 := FlipTiles(d64, row, sgnc, t64, neg)
			if i := sameValues(d32, d64); i >= 0 {
				t.Fatalf("n=%d neg=%v: Δ_%d int32 %d, int64 %d", n, neg, i, d32[i], d64[i])
			}
			if i := sameValues(t32, t64); i >= 0 {
				t.Fatalf("n=%d neg=%v: tile %d min int32 %d, int64 %d", n, neg, i, t32[i], t64[i])
			}
			if int64(m32) != m64 {
				t.Errorf("n=%d neg=%v: tail min int32 %d, int64 %d", n, neg, m32, m64)
			}
		}
	}
}

func TestMinValAndFirstEq(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 100, 1024, 1027} {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(r.Intn(64) - 32) // narrow range forces ties
		}
		wantMin := minValGeneric(d)
		if got := MinVal(d); got != wantMin {
			t.Errorf("MinVal n=%d: %d, want %d", n, got, wantMin)
		}
		if n == 0 {
			if wantMin != math.MaxInt32 {
				t.Errorf("empty MinVal reference: %d", wantMin)
			}
			continue
		}
		for trial := 0; trial < 20; trial++ {
			v := int32(r.Intn(70) - 35)
			want := firstEqGeneric(d, v)
			if got := FirstEq(d, v); got != want {
				t.Errorf("FirstEq n=%d v=%d: %d, want %d", n, v, got, want)
			}
		}
		i, v := MinFirst(d)
		if v != wantMin || i != firstEqGeneric(d, wantMin) {
			t.Errorf("MinFirst n=%d: (%d, %d)", n, i, v)
		}
		// A unique minimum in every position class of the vector body
		// and the scalar remainder.
		for _, at := range []int{0, n / 2, n - 1} {
			e := append([]int32(nil), d...)
			e[at] = math.MinInt32
			if i, v := MinFirst(e); i != at || v != math.MinInt32 {
				t.Errorf("MinFirst n=%d minimum at %d: (%d, %d)", n, at, i, v)
			}
		}
	}
	if i, v := MinFirst(nil); i != -1 || v != math.MaxInt32 {
		t.Errorf("MinFirst(nil) = (%d, %d)", i, v)
	}
}

// TestQuickFlipAgreement drives randomized shapes through the batched
// kernel and the scalar reference — the quick.Check sweep over batch
// boundary alignments the PR 5 harness idiom asks for.
func TestQuickFlipAgreement(t *testing.T) {
	f := func(seed int64, sz uint16, neg bool) bool {
		n := int(sz % 600)
		r := rand.New(rand.NewSource(seed))
		d, row, sgnc := randInputs(r, n)
		ref := widen(d)
		want := refFlip(ref, row, sgnc, neg)
		got := runFlip(d, row, sgnc, neg)
		if n > 0 && int64(got) != want {
			return false
		}
		return sameValues(d, ref) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAcceleratedAgainstGeneric(t *testing.T) {
	if !Accelerated() {
		t.Skip("no accelerated kernel on this host")
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := TileWidth * (1 + r.Intn(8))
		d1, row, sgnc := randInputs(r, n)
		d2 := append([]int32(nil), d1...)
		neg := r.Intn(2) == 0
		t1 := make([]int32, n/TileWidth)
		t2 := make([]int32, n/TileWidth)
		flipTilesGeneric(d1, row, sgnc, t1, neg)
		flipTilesAccel(d2, row, sgnc, t2, n/TileWidth, neg)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("trial %d: delta drift at %d", trial, i)
			}
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("trial %d: tile min drift at %d: %d vs %d", trial, i, t1[i], t2[i])
			}
		}
		if a, b := minValGeneric(d1), minValAccel(d2); a != b {
			t.Fatalf("trial %d: MinVal drift: %d vs %d", trial, a, b)
		}
	}
}

// FuzzFlipTiles runs arbitrary rows, including −32768 weights, over
// deltas seeded within one update of the int32 bound, and asserts that
// the active kernel, the portable tile loop and the int64 reference
// agree on every lane, every tile minimum and the tail minimum.
func FuzzFlipTiles(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x80, 0xff, 0x7f}, false)
	f.Add(int64(2), bytes.Repeat([]byte{0x00, 0x80}, TileWidth), true) // a tile of −32768
	f.Add(int64(3), bytes.Repeat([]byte{0xff, 0x7f, 0x00, 0x80}, TileWidth+5), false)
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, neg bool) {
		n := len(raw) / 2
		r := rand.New(rand.NewSource(seed))
		row := make([]int16, n)
		sgnc := make([]int16, n)
		d := make([]int32, n)
		sign := int64(1)
		if neg {
			sign = -1
		}
		for i := range row {
			row[i] = int16(uint16(raw[2*i]) | uint16(raw[2*i+1])<<8)
			sgnc[i] = []int16{2, -2, 0}[r.Intn(3)]
			// Start within 2¹⁶ of ±deltaBound. Where the update would
			// carry the lane past the bound, move the start back by
			// 2·step, so the lane ends inside it: every updated value is
			// a Δ some accepted instance can reach.
			step := sign * int64(sgnc[i]) * int64(row[i])
			v := int64(deltaBound - r.Intn(1<<16))
			if r.Intn(2) == 0 {
				v = -v
			}
			if v+step > deltaBound || v+step < -deltaBound {
				v -= 2 * step
			}
			if sgnc[i] == 0 && r.Intn(4) == 0 {
				v = math.MaxInt32 // the flipped-bit sentinel
			}
			d[i] = int32(v)
		}
		ref := widen(d)
		refFlip(ref, row, sgnc, neg)

		nt := n / TileWidth
		generic := append([]int32(nil), d...)
		gmins := make([]int32, nt)
		flipTilesGeneric(generic[:nt*TileWidth], row, sgnc, gmins, neg)
		gtail := flipTail(generic, row, sgnc, nt*TileWidth, neg)

		tmins := make([]int32, nt)
		tail := FlipTiles(d, row, sgnc, tmins, neg)

		if i := sameValues(d, ref); i >= 0 {
			t.Fatalf("Δ_%d: kernel %d, reference %d", i, d[i], ref[i])
		}
		if i := sameValues(generic, ref); i >= 0 {
			t.Fatalf("Δ_%d: portable loop %d, reference %d", i, generic[i], ref[i])
		}
		for ti := 0; ti < nt; ti++ {
			want := int64(math.MaxInt64)
			for _, v := range ref[ti*TileWidth : (ti+1)*TileWidth] {
				want = min(want, v)
			}
			if int64(tmins[ti]) != want || gmins[ti] != tmins[ti] {
				t.Fatalf("tile %d min: kernel %d, portable %d, reference %d", ti, tmins[ti], gmins[ti], want)
			}
		}
		want := int64(math.MaxInt32)
		for _, v := range ref[nt*TileWidth:] {
			want = min(want, v)
		}
		if int64(tail) != want || gtail != tail {
			t.Fatalf("tail min: kernel %d, portable %d, reference %d", tail, gtail, want)
		}
	})
}

func TestNameIsSelfDescribing(t *testing.T) {
	name := Name()
	if Accelerated() {
		if name == "generic" || name == "" {
			t.Errorf("accelerated kernel reports name %q", name)
		}
	} else if name != "generic" {
		t.Errorf("portable kernel reports name %q", name)
	}
}
