package core

// Cross-backend equivalence harness: every registered solver backend
// must reach the exact optimum of small known-optimum instances — a
// random max-cut graph, a Chimera lattice and a dense random QUBO —
// through the same Solve path the binaries use, and the race
// meta-backend must never finish worse than a best it was handed as a
// warm start. This pins the Backend contract (any registered engine is
// a drop-in replacement for the straight search on feasible work), not
// just each engine's internals.

import (
	"fmt"
	"testing"
	"time"

	"abs/internal/backend"
	"abs/internal/chimera"
	"abs/internal/maxcut"
	"abs/internal/qubo"
)

// equivalenceInstances builds the small known-optimum set. All are
// within qubo.ExactSolve's enumeration reach.
func equivalenceInstances(t *testing.T) []*qubo.Problem {
	t.Helper()

	g, err := maxcut.GenerateRandom(20, 60, maxcut.WeightsPlusMinusOne, 81)
	if err != nil {
		t.Fatalf("maxcut.GenerateRandom: %v", err)
	}
	mp, err := maxcut.ToQUBO(g)
	if err != nil {
		t.Fatalf("maxcut.ToQUBO: %v", err)
	}
	mp.SetName("maxcut-r20")

	model, err := chimera.RandomInstance(chimera.Topology{M: 1}, 7, 3, 82)
	if err != nil {
		t.Fatalf("chimera.RandomInstance: %v", err)
	}
	cp, _, err := model.ToQUBO()
	if err != nil {
		t.Fatalf("ising ToQUBO: %v", err)
	}
	cp.SetName("chimera-C1")

	dp := randomProblem(24, 83)
	dp.SetName("dense-r24")

	return []*qubo.Problem{mp, cp, dp}
}

func TestAllBackendsReachExactOptimum(t *testing.T) {
	problems := equivalenceInstances(t)
	for _, name := range backend.Names() {
		for _, p := range problems {
			t.Run(fmt.Sprintf("%s/%s", name, p.Name()), func(t *testing.T) {
				_, optE, err := qubo.ExactSolve(p)
				if err != nil {
					t.Fatal(err)
				}
				o := tinyOptions()
				o.Tuning.Backend = Backend(name)
				o.TargetEnergy = &optE
				o.MaxDuration = 20 * time.Second // safety net; target expected fast
				res, err := Solve(p, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Backend != Backend(name) {
					t.Errorf("result backend %q, want %q", res.Backend, name)
				}
				if !res.ReachedTarget {
					t.Fatalf("backend %s did not reach optimum %d on %s; best %d",
						name, optE, p.Name(), res.BestEnergy)
				}
				if res.BestEnergy > optE {
					t.Errorf("best energy %d worse than exact optimum %d", res.BestEnergy, optE)
				}
				if got := p.Energy(res.Best); got != res.BestEnergy {
					t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
				}
			})
		}
	}
}

// TestRaceNeverRegressesWarmStart hands the race meta-backend the best
// solution a straight run found and checks the race run ends at that
// energy or better — the mixed fleet shares one pool through the same
// ingest gate, so a warm start must survive as a floor on the result.
func TestRaceNeverRegressesWarmStart(t *testing.T) {
	p := randomProblem(96, 84)

	o := tinyOptions()
	o.Tuning.Backend = BackendStraight
	o.MaxDuration = 300 * time.Millisecond
	base, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Best == nil {
		t.Fatal("straight seeding run produced no best")
	}

	o = tinyOptions()
	o.Tuning.Backend = BackendRace
	o.MaxDuration = 300 * time.Millisecond
	o.WarmStarts = append(o.WarmStarts, base.Best)
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestEnergy > base.BestEnergy {
		t.Fatalf("race best %d regressed from warm start %d",
			res.BestEnergy, base.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("race best vector energy %d != reported %d", got, res.BestEnergy)
	}
}
