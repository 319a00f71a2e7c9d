// Ising example: build a frustrated Ising model directly (fields +
// interactions), convert it loss-free to QUBO, find the ground state
// with ABS, and verify the Hamiltonian identity 2·E = H + C.
//
// The model is an antiferromagnetic ring with a ferromagnetic shortcut
// and a biasing field — small enough to verify exhaustively, frustrated
// enough that the ground state is not obvious.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abs"
	"abs/internal/ising"
)

func main() {
	const n = 20
	m := ising.New(n)
	// Antiferromagnetic ring: J < 0 prefers anti-aligned neighbours.
	for i := 0; i < n; i++ {
		m.SetJ(i, (i+1)%n, -3)
	}
	// Ferromagnetic chords frustrate the ring.
	for i := 0; i < n/2; i++ {
		m.SetJ(i, i+n/2, 2)
	}
	// A field pinning spin 0 upward.
	m.SetH(0, 5)

	p, c, err := m.ToQUBO()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ising model: %d spins → QUBO with %d bits, offset C = %d\n", n, p.N(), c)

	res, err := abs.SolveForContext(context.Background(), p, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	spins := ising.SpinsFromBits(res.Best)
	h, err := m.Hamiltonian(spins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground-state candidate: H = %d\n", h)
	fmt.Print("spins: ")
	for _, s := range spins {
		if s > 0 {
			fmt.Print("↑")
		} else {
			fmt.Print("↓")
		}
	}
	fmt.Println()

	// Identity check: 2·E(X) = H(S) + C must hold exactly.
	if 2*res.BestEnergy != h+c {
		log.Fatalf("identity violated: 2E = %d, H+C = %d", 2*res.BestEnergy, h+c)
	}
	fmt.Println("energy/Hamiltonian identity verified")

	// n = 20 is exhaustively checkable: confirm this is the true ground
	// state.
	_, optE, err := abs.ExactSolve(p)
	if err != nil {
		log.Fatal(err)
	}
	if res.BestEnergy == optE {
		fmt.Println("confirmed: exact ground state")
	} else {
		fmt.Printf("best found %d vs exact %d (increase the budget)\n", res.BestEnergy, optE)
	}
}
