package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"abs/internal/bitvec"
	"abs/internal/chimera"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/randqubo"
)

// Seeds. The run seed (--seed) drives the solver seeds and the order of
// the serve job stream. The instances come from the instance seed, so
// every run of a workload solves the same instance and energy_ratio
// divides by a reference energy recorded once, never by a second run.
// The held-out instance (--held-out) is where a claimed gain is
// re-checked: no change is tuned against it.
const (
	DefaultRunSeed      = 1
	DefaultInstanceSeed = 1
	HeldOutInstanceSeed = 2
)

// scale fixes instance sizes and the work in one operation. "full" is
// the benchmark; "tiny" keeps the benchmark's own tests fast.
type scale struct {
	denseN            int
	denseFlips        uint64
	sparseN, sparseM  int
	sparseFlips       uint64
	chimeraM          int
	serveDenseN       int
	serveChimeraFlips uint64
	serveDenseFlips   uint64
	clusterFlips      uint64
	// setups is how often set-up runs (setup_s is their median); minOps
	// is the fewest operations a phase completes, however short.
	setups, minOps int
}

var scales = map[string]scale{
	"full": {
		denseN: 1024, denseFlips: 1_000_000,
		sparseN: 2000, sparseM: 4000, sparseFlips: 3_000_000,
		chimeraM: 6, serveDenseN: 512,
		serveChimeraFlips: 1_000_000, serveDenseFlips: 200_000,
		clusterFlips: 1_000_000,
		setups:       15, minOps: 3,
	},
	"tiny": {
		denseN: 128, denseFlips: 20_000,
		sparseN: 200, sparseM: 400, sparseFlips: 50_000,
		chimeraM: 2, serveDenseN: 64,
		serveChimeraFlips: 20_000, serveDenseFlips: 20_000,
		clusterFlips: 50_000,
		setups:       1, minOps: 2,
	},
}

// denseInstance is the fully dense random QUBO of §4.1.3.
func denseInstance(n int, seed uint64) *qubo.Problem {
	return randqubo.Generate(n, seed)
}

// sparseInstance is a G-set-style random Max-Cut graph with ±1 weights.
func sparseInstance(n, m int, seed uint64) (*qubo.Problem, error) {
	g, err := maxcut.GenerateRandom(n, m, maxcut.WeightsPlusMinusOne, seed)
	if err != nil {
		return nil, err
	}
	p, err := maxcut.ToQUBO(g)
	if err != nil {
		return nil, err
	}
	p.SetName(fmt.Sprintf("gset-pm1-n%d-m%d-s%d", n, m, seed))
	return p, nil
}

// chimeraInstance is a Chimera-native random Ising model C_m as a QUBO.
func chimeraInstance(m int, seed uint64) (*qubo.Problem, error) {
	model, err := chimera.RandomInstance(chimera.Topology{M: m}, 7, 3, seed)
	if err != nil {
		return nil, err
	}
	p, _, err := model.ToQUBO()
	if err != nil {
		return nil, err
	}
	p.SetName(fmt.Sprintf("chimera-C%d-s%d", m, seed))
	return p, nil
}

// instance is one generated problem with the flip budget of one
// operation on it.
type instance struct {
	p     *qubo.Problem
	flips uint64
}

// allInstances lists every instance a scale's workloads solve, for
// calibration and for the test that every one has a reference.
func allInstances(sc scale, seed uint64) ([]instance, error) {
	sp, err := sparseInstance(sc.sparseN, sc.sparseM, seed)
	if err != nil {
		return nil, err
	}
	cp, err := chimeraInstance(sc.chimeraM, seed)
	if err != nil {
		return nil, err
	}
	return []instance{
		{denseInstance(sc.denseN, seed), sc.denseFlips},
		{sp, max(sc.sparseFlips, sc.clusterFlips)},
		{cp, sc.serveChimeraFlips},
		{denseInstance(sc.serveDenseN, seed), sc.serveDenseFlips},
	}, nil
}

//go:embed reference.json
var referenceJSON []byte

// referenceFile is reference.json: per instance name, the best energy
// one long fixed-seed solve reached (see calibrateCmd).
type referenceFile struct {
	Method   string           `json:"method"`
	Energies map[string]int64 `json:"energies"`
}

func referenceEnergy(name string) (int64, error) {
	var f referenceFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return 0, fmt.Errorf("reference.json: %w", err)
	}
	e, ok := f.Energies[name]
	if !ok || e >= 0 {
		return 0, fmt.Errorf("reference.json has no negative energy for %s; run perfbench calibrate", name)
	}
	return e, nil
}

// checkSolution re-evaluates x on p and reports a vector of the wrong
// width, or one whose energy differs from the claimed one, as an error.
func checkSolution(p *qubo.Problem, x *bitvec.Vector, claimed int64) error {
	if x == nil || x.Len() != p.N() {
		return fmt.Errorf("%s: best vector missing or of the wrong width", p.Name())
	}
	if e := p.Energy(x); e != claimed {
		return fmt.Errorf("%s: reported energy %d, best vector re-evaluates to %d", p.Name(), claimed, e)
	}
	return nil
}

// ratio is best energy ÷ reference energy: 1 at the reference, below 1
// for a worse solution (both are negative).
func ratio(best, ref int64) float64 { return float64(best) / float64(ref) }

// opSeed derives operation i's solver seed from the run seed with a
// splitmix64 finalizer. It is never 0, which the program reads as
// "default seed".
func opSeed(run uint64, i int) uint64 {
	x := run*0x9e3779b97f4a7c15 + uint64(i) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}
