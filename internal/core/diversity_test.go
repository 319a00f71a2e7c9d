package core

import (
	"testing"
	"time"

	"abs/internal/diversity"
	"abs/internal/qubo"
)

// TestSolveWithDiversityPolicy runs the full Solve path with the DABS
// admission policy installed and checks it still reaches a small
// instance's exact optimum: the diversified pool must not cost
// feasibility, only crowding.
func TestSolveWithDiversityPolicy(t *testing.T) {
	p := randomProblem(24, 91)
	_, optE, err := qubo.ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Tuning.Diversity = diversity.Spec{Radius: 2}
	o.TargetEnergy = &optE
	o.MaxDuration = 20 * time.Second // safety net; target expected fast
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("diversified solve missed optimum %d; best %d", optE, res.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
	}
}

// TestSolveRejectsBadDiversitySpec pins option validation: a malformed
// spec is an error before any engine is built.
func TestSolveRejectsBadDiversitySpec(t *testing.T) {
	p := randomProblem(16, 92)
	o := tinyOptions()
	o.MaxFlips = 100
	o.Tuning.Diversity = diversity.Spec{Radius: -4}
	if _, err := Solve(p, o); err == nil {
		t.Fatal("Solve accepted a negative diversity radius")
	}
}

// TestRaceStaticFloorKeepsStaticSplit pins race's unit split at the
// Solve level: under default options every block runs member g mod 3
// for the whole run, and both the per-block and the per-backend reports
// say so. The split is static; no spec moves units.
func TestRaceStaticFloorKeepsStaticSplit(t *testing.T) {
	p := randomProblem(48, 93)
	o := tinyOptions()
	o.Tuning.Backend = BackendRace
	o.MaxDuration = 200 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	checkRaceSplit(t, res)
}

// TestRaceAdaptiveReportsUnits runs race with the radius admission
// policy on: the policy reshapes the pool, never the unit split, so the
// report still covers every block with the fixed g mod 3 split and no
// member is left without units.
func TestRaceAdaptiveReportsUnits(t *testing.T) {
	p := randomProblem(48, 94)
	o := tinyOptions()
	o.Tuning.Backend = BackendRace
	o.Tuning.Diversity = diversity.Spec{Radius: 2}
	o.MaxDuration = 200 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	checkRaceSplit(t, res)
	if res.Blocks >= 3 {
		for _, name := range []string{"straight", "sb", "tabu"} {
			if st := res.BackendStats[name]; st.Units < 1 {
				t.Errorf("member %q has no units: %+v", name, res.BackendStats)
			}
		}
	}
}

// checkRaceSplit asserts that res reports race's fixed split: block g
// ran member g mod 3, and the per-member unit counts match and sum to
// the block count.
func checkRaceSplit(t *testing.T, res *Result) {
	t.Helper()
	members := []string{"straight", "sb", "tabu"}
	if len(res.BlockStats) != res.Blocks {
		t.Fatalf("%d block stats for %d blocks", len(res.BlockStats), res.Blocks)
	}
	want := make(map[string]int)
	for g, bs := range res.BlockStats {
		name := members[g%len(members)]
		want[name]++
		if bs.Backend != name {
			t.Errorf("block %d ran %q, want %q", g, bs.Backend, name)
		}
	}
	total := 0
	for _, name := range members {
		st, ok := res.BackendStats[name]
		if !ok {
			t.Fatalf("BackendStats missing member %q: %+v", name, res.BackendStats)
		}
		if st.Units != want[name] {
			t.Errorf("member %q has %d units, want %d", name, st.Units, want[name])
		}
		total += st.Units
	}
	if total != res.Blocks {
		t.Errorf("unit counts sum %d != %d blocks", total, res.Blocks)
	}
}

// TestNonRaceBackendUnitsAreWholeFleet pins the degenerate shape: a
// single-engine backend owns every block in the reported split.
func TestNonRaceBackendUnitsAreWholeFleet(t *testing.T) {
	p := randomProblem(32, 95)
	o := tinyOptions()
	o.Tuning.Backend = BackendStraight
	o.MaxDuration = 100 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.BackendStats["straight"]
	if !ok {
		t.Fatalf("BackendStats missing the only backend: %+v", res.BackendStats)
	}
	if st.Units != res.Blocks {
		t.Errorf("straight owns %d units, want all %d blocks", st.Units, res.Blocks)
	}
}
