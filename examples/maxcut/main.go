// Max-Cut example: build a G-set-family graph (the paper's §4.1.1
// benchmark), formulate it as QUBO with Eq. (17), solve with ABS, and
// verify the cut independently.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abs"
	"abs/internal/maxcut"
)

func main() {
	// An 800-vertex random graph with ±1 weights — the G6 family.
	g, err := maxcut.GenerateRandom(800, 19176, maxcut.WeightsPlusMinusOne, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s (%d vertices, %d edges, total weight %d)\n",
		g.Name(), g.N(), g.M(), g.TotalWeight())

	// Eq. (17): edge weights off-diagonal, negated weighted degrees on
	// the diagonal; the QUBO energy is the negated cut value.
	p, err := maxcut.ToQUBO(g)
	if err != nil {
		log.Fatal(err)
	}

	res, err := abs.SolveForContext(context.Background(), p, 3*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	cut := maxcut.CutValue(g, res.Best)
	fmt.Printf("best energy %d → cut value %d\n", res.BestEnergy, cut)
	if cut != maxcut.CutFromEnergy(res.BestEnergy) {
		log.Fatal("cut/energy identity violated")
	}

	left := res.Best.OnesCount()
	fmt.Printf("partition sizes: %d / %d\n", left, g.N()-left)
	fmt.Printf("searched %d solutions at %.3g sol/s across %d blocks\n",
		res.Evaluated, res.SearchRate, res.Blocks)
}
