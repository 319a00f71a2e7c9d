package core

import (
	"testing"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/rng"
)

var sinkVerdict Verdict

// BenchmarkGateVet times Gate.Vet on publications the pool would
// admit, so every call pays the energy recheck: once on the dense
// Problem (dense engines and the cluster coordinator) and once on the
// CSR view a sparse engine hands its gate. The instance is a G-set-style
// ±1 Max-Cut graph with n=2000 and m=4000.
func BenchmarkGateVet(b *testing.B) {
	const n, m = 2000, 4000
	g, err := maxcut.GenerateRandom(n, m, maxcut.WeightsPlusMinusOne, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := maxcut.ToQUBO(g)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	xs := make([]*bitvec.Vector, 64)
	es := make([]int64, len(xs))
	for i := range xs {
		xs[i] = bitvec.Random(n, r)
		es[i] = p.Energy(xs[i])
	}
	for _, bc := range []struct {
		name   string
		oracle Oracle
	}{{"dense", p}, {"csr", qubo.Sparsify(p)}} {
		b.Run(bc.name, func(b *testing.B) {
			// A fresh pool holds only unknown-energy seeds, so it
			// admits every evaluated candidate and Vet never inserts.
			host, err := ga.NewHost(n, ga.DefaultConfig(), rng.New(3))
			if err != nil {
				b.Fatal(err)
			}
			gate := NewGate(bc.oracle, false)
			for i, x := range xs {
				if v := gate.Vet(host.Pool(), x, es[i]); v != VerdictAdmit {
					b.Fatalf("verdict %d on an honest publication, want admit", v)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkVerdict = gate.Vet(host.Pool(), xs[i%len(xs)], es[i%len(xs)])
			}
		})
	}
}
