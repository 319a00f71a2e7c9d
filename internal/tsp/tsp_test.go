package tsp

import (
	"strings"
	"testing"
	"testing/quick"

	"abs/internal/bitvec"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// square4 is a 4-city square of side 10: optimal tour length 40 (the
// side length avoids EUC_2D rounding collapsing the diagonals).
func square4() *Instance {
	xs := []float64{0, 10, 10, 0}
	ys := []float64{0, 0, 10, 10}
	t, err := FromCoords(xs, ys, EuclidDistance)
	if err != nil {
		panic(err)
	}
	t.SetName("square4")
	return t
}

func TestInstanceBasics(t *testing.T) {
	inst := NewInstance(4)
	inst.SetDist(0, 1, 5)
	if inst.Dist(1, 0) != 5 {
		t.Error("distance not symmetric")
	}
	if inst.Dist(2, 2) != 0 {
		t.Error("diagonal not zero")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("diagonal SetDist accepted")
			}
		}()
		inst.SetDist(1, 1, 3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative distance accepted")
			}
		}()
		inst.SetDist(0, 2, -1)
	}()
}

func TestTourLengthAndValidation(t *testing.T) {
	sq := square4()
	l, err := sq.TourLength([]int{0, 1, 2, 3})
	if err != nil || l != 40 {
		t.Errorf("square tour length = %d (%v), want 40", l, err)
	}
	// The crossing tour uses both diagonals (14 each): 48 > 40.
	l2, err := sq.TourLength([]int{0, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if l2 <= l {
		t.Errorf("crossing tour %d not longer than perimeter %d", l2, l)
	}
	for _, bad := range [][]int{{0, 1, 2}, {0, 1, 2, 2}, {0, 1, 2, 9}} {
		if _, err := sq.TourLength(bad); err == nil {
			t.Errorf("invalid tour %v accepted", bad)
		}
	}
}

func TestDistanceRules(t *testing.T) {
	if d := EuclidDistance(0, 0, 3, 4); d != 5 {
		t.Errorf("EUC_2D(3,4) = %d, want 5", d)
	}
	if d := EuclidDistance(0, 0, 1, 1); d != 1 { // √2 ≈ 1.414 rounds to 1
		t.Errorf("EUC_2D(1,1) = %d, want 1", d)
	}
	// GEO distance is symmetric and zero for identical points.
	if d := GeoDistance(36.09, 34.48, 36.09, 34.48); d < 0 || d > 1 {
		t.Errorf("GEO self-distance = %d", d)
	}
	if GeoDistance(36.09, 34.48, 38.24, 20.42) != GeoDistance(38.24, 20.42, 36.09, 34.48) {
		t.Error("GEO not symmetric")
	}
	if d := AttDistance(0, 0, 10, 0); d != 4 { // sqrt(100/10)=3.16 → rounds 3, 3<3.16 → 4
		t.Errorf("ATT = %d, want 4", d)
	}
}

func TestHeldKarpSquare(t *testing.T) {
	tour, l, err := HeldKarp(square4())
	if err != nil {
		t.Fatal(err)
	}
	if l != 40 {
		t.Errorf("optimal length = %d, want 40", l)
	}
	if got, _ := square4().TourLength(tour); got != l {
		t.Error("reported tour does not realize reported length")
	}
}

func TestHeldKarpAgainstBruteForce(t *testing.T) {
	inst := RandomEuclidean(8, 42)
	_, hk, err := HeldKarp(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over all permutations fixing city 0.
	best := int64(1) << 60
	perm := []int{1, 2, 3, 4, 5, 6, 7}
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			tour := append([]int{0}, perm...)
			if l, _ := inst.TourLength(tour); l < best {
				best = l
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if hk != best {
		t.Errorf("Held–Karp = %d, brute force = %d", hk, best)
	}
}

func TestHeldKarpRefusesLarge(t *testing.T) {
	if _, _, err := HeldKarp(RandomEuclidean(19, 1)); err == nil {
		t.Error("oversized Held–Karp accepted")
	}
}

func TestTwoOptImproves(t *testing.T) {
	inst := RandomEuclidean(30, 7)
	tour := NearestNeighbour(inst, 0)
	before, err := inst.TourLength(tour)
	if err != nil {
		t.Fatal(err)
	}
	after := TwoOpt(inst, tour)
	if after > before {
		t.Errorf("2-opt made the tour worse: %d → %d", before, after)
	}
	if err := inst.ValidateTour(tour); err != nil {
		t.Errorf("2-opt corrupted tour: %v", err)
	}
}

func TestBestKnownExactForSmall(t *testing.T) {
	inst := square4()
	l, exact := BestKnown(inst, 4, 1)
	if !exact || l != 40 {
		t.Errorf("BestKnown = %d (exact=%v), want 40 exact", l, exact)
	}
	big := RandomEuclidean(25, 2)
	l2, exact2 := BestKnown(big, 4, 1)
	if exact2 {
		t.Error("25-city BestKnown claimed exact")
	}
	if l2 <= 0 {
		t.Error("heuristic BestKnown non-positive")
	}
}

func TestEncodeValidTourEnergy(t *testing.T) {
	inst := RandomEuclidean(8, 3)
	enc, err := Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Vars() != 49 {
		t.Fatalf("vars = %d, want 49", enc.Vars())
	}
	r := rng.New(4)
	for trial := 0; trial < 20; trial++ {
		tour := r.Perm(8)
		x, err := enc.EncodeTour(tour)
		if err != nil {
			t.Fatal(err)
		}
		l, err := inst.TourLength(tour)
		if err != nil {
			t.Fatal(err)
		}
		if e := enc.Problem().Energy(x); e != enc.EnergyForLength(l) {
			t.Fatalf("E = %d, want EnergyForLength(%d) = %d", e, l, enc.EnergyForLength(l))
		}
		if enc.LengthFromEnergy(enc.EnergyForLength(l)) != l {
			t.Fatal("length/energy round trip failed")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	inst := RandomEuclidean(9, 5)
	enc, err := Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	tour := []int{3, 1, 4, 0, 7, 5, 2, 6, 8}
	x, err := enc.EncodeTour(tour)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeTour(x)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded tour is the rotation ending at the pinned city; lengths
	// must match exactly.
	l1, _ := inst.TourLength(tour)
	l2, err := inst.TourLength(got)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Errorf("decoded tour length %d, want %d", l2, l1)
	}
	if got[len(got)-1] != 8 {
		t.Error("decoded tour does not end at pinned city")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	inst := RandomEuclidean(5, 6)
	enc, err := Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero: no city at order 0.
	if _, err := enc.DecodeTour(bitvec.New(enc.Vars())); err == nil {
		t.Error("all-zero decoded")
	}
	// Two cities at order 0.
	x := bitvec.New(enc.Vars())
	x.Set(enc.varIndex(0, 0), 1)
	x.Set(enc.varIndex(1, 0), 1)
	if _, err := enc.DecodeTour(x); err == nil {
		t.Error("double city decoded")
	}
	// Same city at two orders.
	y := bitvec.New(enc.Vars())
	y.Set(enc.varIndex(0, 0), 1)
	y.Set(enc.varIndex(0, 1), 1)
	if _, err := enc.DecodeTour(y); err == nil {
		t.Error("repeated city decoded")
	}
	if _, err := enc.DecodeTour(bitvec.New(3)); err == nil {
		t.Error("wrong-length vector decoded")
	}
}

// TestPenaltyDominates verifies the purpose of A = 2·MaxDist: any
// one-hot violation raises the energy above every valid tour, so the
// QUBO optimum is a valid tour.
func TestPenaltyDominatesViaExactSolve(t *testing.T) {
	inst := RandomEuclidean(5, 7) // 16 variables: exactly solvable
	enc, err := Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	bx, be, err := qubo.ExactSolve(enc.Problem())
	if err != nil {
		t.Fatal(err)
	}
	tour, err := enc.DecodeTour(bx)
	if err != nil {
		t.Fatalf("QUBO optimum is not a valid tour: %v", err)
	}
	l, err := inst.TourLength(tour)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := HeldKarp(inst)
	if err != nil {
		t.Fatal(err)
	}
	if l != opt {
		t.Errorf("QUBO optimum decodes to length %d, Held–Karp optimum %d", l, opt)
	}
	if be != enc.EnergyForLength(opt) {
		t.Errorf("optimal energy %d != EnergyForLength(%d) = %d", be, opt, enc.EnergyForLength(opt))
	}
}

func TestQuickEncodedTourEnergyIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		c := 4 + int(seed%6)
		inst := RandomEuclidean(c, seed)
		enc, err := Encode(inst)
		if err != nil {
			return false
		}
		tour := rng.New(seed ^ 0xc0ffee).Perm(c)
		x, err := enc.EncodeTour(tour)
		if err != nil {
			return false
		}
		l, err := inst.TourLength(tour)
		if err != nil {
			return false
		}
		return enc.Problem().Energy(x) == enc.EnergyForLength(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadTSPLIBEuc2D(t *testing.T) {
	in := `NAME: tiny
TYPE: TSP
COMMENT: unit test
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 3 4
4 0 4
EOF
`
	inst, err := ReadTSPLIB(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Name() != "tiny" || inst.Cities() != 4 {
		t.Fatalf("header: %q %d", inst.Name(), inst.Cities())
	}
	if inst.Dist(0, 1) != 3 || inst.Dist(1, 2) != 4 || inst.Dist(0, 2) != 5 {
		t.Errorf("distances wrong: %d %d %d", inst.Dist(0, 1), inst.Dist(1, 2), inst.Dist(0, 2))
	}
}

func TestReadTSPLIBExplicitFormats(t *testing.T) {
	upperRow := `NAME: ur
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: UPPER_ROW
EDGE_WEIGHT_SECTION
1 2
3
EOF
`
	inst, err := ReadTSPLIB(strings.NewReader(upperRow))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Dist(0, 1) != 1 || inst.Dist(0, 2) != 2 || inst.Dist(1, 2) != 3 {
		t.Errorf("UPPER_ROW distances wrong")
	}

	lowerDiag := `NAME: ld
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
4 0
5 6 0
EOF
`
	inst2, err := ReadTSPLIB(strings.NewReader(lowerDiag))
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Dist(0, 1) != 4 || inst2.Dist(0, 2) != 5 || inst2.Dist(1, 2) != 6 {
		t.Errorf("LOWER_DIAG_ROW distances wrong")
	}

	full := `NAME: fm
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 7 8
7 0 9
8 9 0
EOF
`
	inst3, err := ReadTSPLIB(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if inst3.Dist(0, 1) != 7 || inst3.Dist(0, 2) != 8 || inst3.Dist(1, 2) != 9 {
		t.Errorf("FULL_MATRIX distances wrong")
	}
}

func TestReadTSPLIBErrors(t *testing.T) {
	cases := map[string]string{
		"no dimension":  "NAME: x\nTYPE: TSP\nNODE_COORD_SECTION\n",
		"bad type":      "TYPE: ATSP\nDIMENSION: 3\n",
		"short coords":  "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n",
		"short weights": "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n1\nEOF\n",
		"bad format":    "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: BANANAS\nEDGE_WEIGHT_SECTION\n1 2 3\nEOF\n",
		"dup city":      "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n1 1 1\n3 2 2\nEOF\n",
	}
	for name, in := range cases {
		if _, err := ReadTSPLIB(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestReadTSPLIBRejectsHugeDimension: a header alone must not make the
// reader allocate per-city arrays sized by an absurd DIMENSION (17 GB
// for 10⁹ cities); it is rejected as a bad header instead.
func TestReadTSPLIBRejectsHugeDimension(t *testing.T) {
	in := "DIMENSION: 1000000000\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\nEOF\n"
	_, err := ReadTSPLIB(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "DIMENSION") {
		t.Errorf("huge DIMENSION: err = %v, want a bad DIMENSION error", err)
	}
}

func TestTSPLIBWriteReadRoundTrip(t *testing.T) {
	inst := RandomEuclidean(10, 8)
	var sb strings.Builder
	if err := WriteTSPLIB(&sb, inst); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSPLIB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if inst.Dist(i, j) != back.Dist(i, j) {
				t.Fatalf("distance (%d,%d) changed in round trip", i, j)
			}
		}
	}
}

func TestPaperInstances(t *testing.T) {
	list := PaperTSP()
	if len(list) != 5 {
		t.Fatalf("%d paper instances, want 5", len(list))
	}
	wantBits := []int{225, 784, 1681, 2601, 4761}
	for i, pi := range list {
		if pi.Bits() != wantBits[i] {
			t.Errorf("%s: bits = %d, want %d", pi.Name, pi.Bits(), wantBits[i])
		}
		inst := pi.Generate()
		if inst.Cities() != pi.Cities {
			t.Errorf("%s: generated %d cities", pi.Name, inst.Cities())
		}
		if pi.Cities <= 29 { // keep the big encodings out of the unit run
			if _, err := Encode(inst); err != nil {
				t.Errorf("%s: encode failed: %v", pi.Name, err)
			}
		}
	}
}

func TestRandomEuclideanDeterministic(t *testing.T) {
	a := RandomEuclidean(12, 99)
	b := RandomEuclidean(12, 99)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if a.Dist(i, j) != b.Dist(i, j) {
				t.Fatal("same-seed instances differ")
			}
		}
	}
}

func TestReadTSPLIBNeverPanicsOnGarbage(t *testing.T) {
	r := rng.New(0xbeef)
	inputs := []string{
		"", "DIMENSION: 3", "NODE_COORD_SECTION",
		"DIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 1\nEOF",
		"DIMENSION: 1000000000\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\nEOF",
	}
	for i := 0; i < 150; i++ {
		n := int(r.Uint64() % 80)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(r.Uint64()%96) + 32
		}
		inputs = append(inputs, string(b))
	}
	for _, in := range inputs {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("ReadTSPLIB panicked on %q: %v", in, rec)
				}
			}()
			_, _ = ReadTSPLIB(strings.NewReader(in))
		}()
	}
}
