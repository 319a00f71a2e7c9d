package core

import (
	"testing"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// FuzzIngestGate throws arbitrary publications — any vector width and
// content, any claimed energy, any device/block indices — at the host's
// validation gate. Whatever arrives, the gate must not panic, must only
// retarget addressable slots, and (with validation on) must never let a
// lying energy into the pool; pool invariants must hold throughout.
// Every input goes through two gates, one rechecking on the dense
// Problem and one on its CSR view (what a sparse engine's gate gets),
// and both must reach the same verdicts.
func FuzzIngestGate(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, 24, int64(-10), 0, 0, false)
	f.Add([]byte{}, 0, int64(0), -1, 99, false)
	f.Add([]byte{0xaa}, 7, ga.UnknownEnergy, 1, 15, true)
	f.Add([]byte{0x01, 0x02, 0x03}, 1<<16, int64(1), 1<<60, 1<<60, false)
	f.Add([]byte{0x10}, 24, int64(3), 1, 3, true)

	const (
		n            = 24
		activeBlocks = 16
		totalBlocks  = 32
	)
	problem := randomProblem(n, 77)
	// An honest publication, so the corpus reaches the admit path too.
	honest := []byte{0x5a, 0xc3, 0x81}
	f.Add(honest, n, problem.Energy(fuzzVector(honest, n)), 1, 2, false)
	oracles := []struct {
		name   string
		oracle Oracle
	}{{"dense", problem}, {"csr", qubo.Sparsify(problem)}}

	f.Fuzz(func(t *testing.T, bits []byte, width int, energy int64, device, block int, trust bool) {
		x := fuzzVector(bits, width)
		s := gpusim.Solution{X: x, Energy: energy, Device: device, Block: block}

		type verdict struct {
			slot               int
			inserted, retarget bool
		}
		var verdicts [2][2]verdict // per oracle: first ingest, duplicate
		for k, o := range oracles {
			// Rebuild a fresh pool per gate so invariant checks are
			// cheap and both gates see the same pool state.
			host, err := ga.NewHost(n, ga.DefaultConfig(), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			gate := &ingestGate{
				adm:          NewGate(o.oracle, trust),
				activeBlocks: activeBlocks,
				totalBlocks:  totalBlocks,
			}

			slot, inserted, retarget := gate.ingest(host, s)
			if retarget && (slot < 0 || slot >= totalBlocks) {
				t.Fatalf("%s: retarget of unaddressable slot %d", o.name, slot)
			}
			if inserted {
				if x == nil || x.Len() != n {
					t.Fatalf("%s: structurally invalid publication inserted", o.name)
				}
				if energy == ga.UnknownEnergy {
					t.Fatalf("%s: unknown-energy sentinel inserted as a device energy", o.name)
				}
				if !trust && problem.Energy(x) != energy {
					t.Fatalf("%s: validated insert of a lying energy: claimed %d, true %d",
						o.name, energy, problem.Energy(x))
				}
			}
			if err := host.Pool().CheckInvariants(); err != nil {
				t.Fatalf("%s: pool invariants broken after ingest: %v", o.name, err)
			}
			verdicts[k][0] = verdict{slot, inserted, retarget}
			// A second identical ingest must never panic either
			// (duplicate path) and must keep invariants.
			slot, inserted, retarget = gate.ingest(host, s)
			if err := host.Pool().CheckInvariants(); err != nil {
				t.Fatalf("%s: pool invariants broken after duplicate ingest: %v", o.name, err)
			}
			verdicts[k][1] = verdict{slot, inserted, retarget}
		}
		if verdicts[0] != verdicts[1] {
			t.Fatalf("oracles disagree: dense %+v, csr %+v", verdicts[0], verdicts[1])
		}
	})
}

// fuzzVector builds a width-bit vector from the fuzz payload. Width 0
// is unconstructible (bitvec.New panics by design), so non-positive and
// absurd widths become the nil-vector case.
func fuzzVector(bits []byte, width int) *bitvec.Vector {
	if width < 1 || width > 4096 {
		return nil
	}
	x := bitvec.New(width)
	for i := 0; i < width && i/8 < len(bits); i++ {
		x.Set(i, int(bits[i/8]>>(uint(i)%8))&1)
	}
	return x
}
