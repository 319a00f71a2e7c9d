package qubo

import (
	"testing"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

// FuzzSparsifyRoundTrip is the CSR round-trip oracle: whatever weight
// matrix the fuzzer assembles, the adjacency view must agree with the
// dense one — structurally (every non-zero recovered, nothing
// invented) and energetically (E(x) and every Δ_k(x) identical on
// arbitrary vectors). Sizes run up to 255 bits, so Sparse.Energy's
// word-by-word walk is checked across 64-bit word boundaries.
func FuzzSparsifyRoundTrip(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0xff, 0x7f}, []byte{0xaa})
	f.Add(uint64(42), []byte{}, []byte{})
	f.Add(uint64(7), []byte{0x00, 0x00, 0x80, 0x01}, []byte{0xff, 0x0f})
	f.Add(uint64(127), []byte{0x80, 0x01, 0xfe, 0x7f, 0x02}, []byte{0x00, 0xff, 0x01})
	f.Add(uint64(190), []byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}, []byte{0xf0})
	f.Fuzz(func(t *testing.T, seed uint64, weights, vec []byte) {
		n := 2 + int(seed%254)
		p := New(n)
		// Deterministic fill from the fuzz payload: each byte seeds one
		// upper-triangle weight (zero bytes leave holes, so density
		// varies from empty to full across inputs).
		r := rng.New(seed)
		for b, w := range weights {
			i, j := r.Intn(n), r.Intn(n)
			p.SetWeight(i, j, int16(w)-128+int16(b%3))
		}

		sp := Sparsify(p)

		// Structural round-trip: CSR → dense must reproduce the matrix.
		for i := 0; i < n; i++ {
			if sp.Diag(i) != p.Weight(i, i) {
				t.Fatalf("diag[%d] = %d, want %d", i, sp.Diag(i), p.Weight(i, i))
			}
			row := make([]int16, n)
			idx, w := sp.Neighbours(i)
			for pos, j := range idx {
				if int(j) == i {
					t.Fatalf("diagonal %d leaked into neighbour list", i)
				}
				if w[pos] == 0 {
					t.Fatalf("explicit zero stored for (%d,%d)", i, j)
				}
				row[j] = w[pos]
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if row[j] != p.Weight(i, j) {
					t.Fatalf("reconstructed W[%d][%d] = %d, want %d", i, j, row[j], p.Weight(i, j))
				}
			}
		}

		// Energetic round-trip on vectors derived from the fuzz payload
		// plus the all-ones and all-zero corners.
		vectors := []*bitvec.Vector{bitvec.New(n), bitvec.Random(n, rng.New(seed^0xbeef))}
		x := bitvec.New(n)
		for i := 0; i < n; i++ {
			if i < len(vec)*8 && vec[i/8]&(1<<(i%8)) != 0 {
				x.Flip(i)
			}
		}
		ones := bitvec.New(n)
		for i := 0; i < n; i++ {
			ones.Flip(i)
		}
		vectors = append(vectors, x, ones)
		for _, v := range vectors {
			if got, want := sp.Energy(v), p.Energy(v); got != want {
				t.Fatalf("sparse E = %d, dense E = %d (x=%s)", got, want, v)
			}
			for k := 0; k < n; k++ {
				if got, want := sp.DeltaDirect(v, k), p.Delta(v, k); got != want {
					t.Fatalf("sparse Δ_%d = %d, dense Δ_%d = %d", k, got, k, want)
				}
			}
		}

		// The incremental engines must agree with the direct formulas
		// after walking to x.
		ds, ss := NewState(p, x), NewSparseState(sp, x)
		if ds.Energy() != ss.Energy() {
			t.Fatalf("engine energies diverged: dense %d, sparse %d", ds.Energy(), ss.Energy())
		}
		if err := ss.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
