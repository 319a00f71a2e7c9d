package qubo

import (
	"fmt"

	"abs/internal/bitvec"
)

// BnBMaxBits bounds the branch-and-bound exact solver. Unlike the
// Gray-code enumerator (ExactMaxBits = 30, always 2ⁿ work), B&B prunes,
// so instances in the 30–48 bit range are often tractable — the regime
// the paper's §1 attributes to exact methods ("up to 200 bits" for the
// state of the art; this is a textbook bound, not that).
const BnBMaxBits = 48

// BnBResult reports an exact branch-and-bound solve.
type BnBResult struct {
	X      *bitvec.Vector
	Energy int64
	// Nodes is the number of search-tree nodes expanded; compare with
	// 2ⁿ to see the pruning factor.
	Nodes uint64
}

// BranchAndBound solves the instance exactly by depth-first search over
// variable assignments with a term-wise lower bound:
//
//	E(X) = Σ_i c_ii x_i + Σ_{i<j} c_ij x_i x_j,  c_ii = W_ii, c_ij = 2·W_ij.
//
// At a node with variables [0, k) fixed, the bound is the fixed-fixed
// contribution, plus for every unfixed j the best case of its linear
// part (diagonal + couplings to fixed ones), plus the sum of all
// negative unfixed-unfixed couplings — each term independently at its
// minimum, hence a valid lower bound. The incumbent starts from a
// greedy descent so pruning bites immediately.
func BranchAndBound(p *Problem) (BnBResult, error) {
	n := p.N()
	if n > BnBMaxBits {
		return BnBResult{}, fmt.Errorf("qubo: branch and bound limited to %d bits, got %d", BnBMaxBits, n)
	}

	// c coefficients: diag once, off-diag doubled (Eq. 1 counts pairs
	// twice).
	c := func(i, j int) int64 {
		if i == j {
			return int64(p.Weight(i, i))
		}
		return 2 * int64(p.Weight(i, j))
	}

	// pairNeg[k] = Σ_{k ≤ i < j < n} min(0, c_ij): the unfixed-unfixed
	// bound for a node at depth k.
	pairNeg := make([]int64, n+1)
	for k := n - 1; k >= 0; k-- {
		s := pairNeg[k+1]
		for j := k + 1; j < n; j++ {
			if v := c(k, j); v < 0 {
				s += v
			}
		}
		pairNeg[k] = s
	}

	// Incumbent: greedy descent from zero (cheap, often strong).
	inc := NewZeroState(p)
	for {
		best, bestD := -1, int32(0)
		for i, d := range inc.Deltas() {
			if d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break
		}
		inc.Flip(best)
	}
	bestX := inc.Snapshot()
	bestE := inc.Energy()

	// DFS state.
	x := bitvec.New(n)
	// linAdj[j] = Σ_{fixed i with x_i = 1} c_ij for unfixed j.
	linAdj := make([]int64, n)
	var nodes uint64

	var dfs func(k int, curE int64)
	dfs = func(k int, curE int64) {
		nodes++
		if k == n {
			if curE < bestE {
				bestE = curE
				bestX.CopyFrom(x)
			}
			return
		}
		// Lower bound for the subtree.
		bound := curE + pairNeg[k]
		for j := k; j < n; j++ {
			if lin := c(j, j) + linAdj[j]; lin < 0 {
				bound += lin
			}
		}
		if bound >= bestE {
			return
		}
		// Branch x_k = 1 first when its linear part is negative — the
		// more promising side, tightening the incumbent early.
		lin := c(k, k) + linAdj[k]
		tryOne := func() {
			x.Set(k, 1)
			for j := k + 1; j < n; j++ {
				linAdj[j] += c(k, j)
			}
			dfs(k+1, curE+lin)
			for j := k + 1; j < n; j++ {
				linAdj[j] -= c(k, j)
			}
			x.Set(k, 0)
		}
		tryZero := func() { dfs(k+1, curE) }
		if lin < 0 {
			tryOne()
			tryZero()
		} else {
			tryZero()
			tryOne()
		}
	}
	dfs(0, 0)
	return BnBResult{X: bestX, Energy: bestE, Nodes: nodes}, nil
}
