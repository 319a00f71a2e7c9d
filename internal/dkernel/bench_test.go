package dkernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFlipTiles is the kernel-level sibling of qubo's
// BenchmarkFlipCrossover: one full delta-update pass over int32 deltas
// at paper-shape row lengths, batched (active implementation) vs the
// scalar reference.
func BenchmarkFlipTiles(b *testing.B) {
	for _, n := range []int{1024, 4096, 8192} {
		r := rand.New(rand.NewSource(int64(n)))
		d, row, sgnc := randInputs(r, n)
		tmins := make([]int32, n/TileWidth)
		b.Run(fmt.Sprintf("batched-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				FlipTiles(d, row, sgnc, tmins, i&1 == 1)
			}
		})
		b.Run(fmt.Sprintf("scalar-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				flipTail(d, row, sgnc, 0, i&1 == 1)
			}
		})
	}
}

func BenchmarkMinVal(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 8192} {
		r := rand.New(rand.NewSource(int64(n)))
		d, _, _ := randInputs(r, n)
		b.Run(fmt.Sprintf("batched-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MinVal(d)
			}
		})
		b.Run(fmt.Sprintf("scalar-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				minValGeneric(d)
			}
		})
	}
}
