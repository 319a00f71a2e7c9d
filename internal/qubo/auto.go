package qubo

import "abs/internal/bitvec"

// Rep identifies an incremental-engine representation: the paper's
// dense Δ register file (Eq. 6 applied to a full weight row per flip)
// or the adjacency-based CSR engine (only the flipped bit's neighbours
// are touched).
type Rep int

const (
	// RepDense is the paper's kernel: O(n) per flip, n neighbours
	// evaluated (Eq. 5).
	RepDense Rep = iota
	// RepSparse is the CSR engine: O(deg) per flip, 1+deg neighbours
	// evaluated.
	RepSparse
)

func (r Rep) String() string {
	switch r {
	case RepDense:
		return "dense"
	case RepSparse:
		return "sparse"
	default:
		return "Rep(?)"
	}
}

// DefaultSparseDensityThreshold is the off-diagonal density below which
// ChooseRep selects the sparse engine. Chosen from measurement
// (BenchmarkFlipCrossover): on this package's engines the sparse flip
// beats the dense row scan up to ≈50 % density at n ∈ {1k, 4k}, but the
// win shrinks toward the crossover while CSR storage for mid-density
// instances approaches twice the dense matrix; 0.30 keeps only the
// ≥1.5× regime. See DESIGN.md §9.
const DefaultSparseDensityThreshold = 0.30

// ChooseRep maps an off-diagonal non-zero density to the representation
// that flips faster at that density.
func ChooseRep(density float64) Rep {
	if density < DefaultSparseDensityThreshold {
		return RepSparse
	}
	return RepDense
}

// AutoRep returns the representation ChooseRep selects for p. The
// density scan is O(n²) once per instance — amortized to nothing
// against any real search, and identical to what Sparsify would walk
// anyway.
func AutoRep(p *Problem) Rep { return ChooseRep(p.Density()) }

// NewAutoZeroState returns a zero-positioned Engine in the
// representation AutoRep selects for p: the paper's dense State above
// the threshold, the CSR SparseState below it. Callers that construct
// many engines for one instance should instead Sparsify once and share
// the immutable *Sparse across units (see core.NewEngine).
func NewAutoZeroState(p *Problem) Engine {
	if AutoRep(p) == RepSparse {
		return NewSparseZeroState(Sparsify(p))
	}
	return NewZeroState(p)
}

// NewAutoState is NewAutoZeroState positioned at x.
func NewAutoState(p *Problem, x *bitvec.Vector) Engine {
	if AutoRep(p) == RepSparse {
		return NewSparseState(Sparsify(p), x)
	}
	return NewState(p, x)
}
