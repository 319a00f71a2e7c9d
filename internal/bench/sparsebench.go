package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"abs/internal/chimera"
	"abs/internal/core"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/randqubo"
)

// SparseReport is the dense-vs-sparse representation comparison written
// by `abs-bench -sparse-report FILE` (BENCH_pr5.json in the repo): the
// same instances solved under the same budget on both engines, with
// flips/sec and time-to-target side by side. It is the measured basis
// for qubo.DefaultSparseDensityThreshold — on instances well below the
// threshold the sparse engine must win by a wide margin, and on dense
// instances it must not cost anything (it is simply not selected).
type SparseReport struct {
	Schema    string    `json:"schema"` // "abs-sparse-report/1"
	Scale     string    `json:"scale"`
	Generated time.Time `json:"generated"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	// ThresholdDensity echoes qubo.DefaultSparseDensityThreshold so the
	// report is self-describing.
	ThresholdDensity float64          `json:"threshold_density"`
	Instances        []SparseInstance `json:"instances"`
}

// SparseInstance is one instance measured on both engines.
type SparseInstance struct {
	Name    string  `json:"name"`
	Family  string  `json:"family"` // gset-random | chimera | dense-random
	Bits    int     `json:"bits"`
	Density float64 `json:"density"`
	// AutoPicks is what StorageAuto would select for this instance.
	AutoPicks string `json:"auto_picks"`

	Dense  SparseEngineRun `json:"dense"`
	Sparse SparseEngineRun `json:"sparse"`

	// FlipRatio is sparse flips/sec over dense flips/sec (>1 means the
	// sparse engine is faster).
	FlipRatio float64 `json:"flip_ratio"`
}

// SparseEngineRun is one engine's measurement on one instance.
type SparseEngineRun struct {
	Storage     string  `json:"storage"`
	WallSeconds float64 `json:"wall_seconds"`
	Flips       uint64  `json:"flips"`
	FlipsPerSec float64 `json:"flips_per_sec"`
	BestEnergy  int64   `json:"best_energy"`
	// TargetEnergy is the calibrated shared target; TTTSeconds is the
	// wall time at which this engine reached it (0 when missed within
	// the run cap; Reached tells the two zeros apart).
	TargetEnergy int64   `json:"target_energy"`
	TTTSeconds   float64 `json:"ttt_seconds"`
	Reached      bool    `json:"reached"`
}

// sparseInstances builds the fixed three-family instance set: a
// G-set-style random Max-Cut graph (the paper's sparsest family, ≤1 %
// density), a Chimera lattice (degree ≤ 6, the D-Wave comparison
// topology of §4.1.2), and a fully dense random QUBO (§4.1.3) as the
// control the sparse path must not regress.
func sparseInstances(s Scale) ([]*qubo.Problem, []string, error) {
	gsetN, gsetM := 2000, 4000
	chimeraM := 8 // C8: 512 bits, 1472 couplers
	denseN := 1024
	if s.Name == "quick" {
		gsetN, gsetM = 800, 1600
		chimeraM = 6
		denseN = 512
	}

	g, err := maxcut.GenerateRandom(gsetN, gsetM, maxcut.WeightsPlusMinusOne, 9001)
	if err != nil {
		return nil, nil, err
	}
	gp, err := maxcut.ToQUBO(g)
	if err != nil {
		return nil, nil, err
	}

	model, err := chimera.RandomInstance(chimera.Topology{M: chimeraM}, 7, 0, 9002)
	if err != nil {
		return nil, nil, err
	}
	cp, _, err := model.ToQUBO()
	if err != nil {
		return nil, nil, err
	}
	cp.SetName(fmt.Sprintf("chimera-C%d", chimeraM))

	dp := randqubo.Generate(denseN, 9003)

	return []*qubo.Problem{gp, cp, dp},
		[]string{"gset-random", "chimera", "dense-random"}, nil
}

// measureEngine runs one instance on one pinned representation: a rate
// run under the scale's budget, then a time-to-target run against the
// shared calibrated target.
func measureEngine(p *qubo.Problem, storage core.Storage, target int64, s Scale) (SparseEngineRun, error) {
	opt := solveOptions()
	opt.Tuning.Storage = storage
	run := SparseEngineRun{Storage: storage.String(), TargetEnergy: target}

	res, err := MeasureRate(p, opt, s.RateBudget)
	if err != nil {
		return run, err
	}
	run.WallSeconds = res.Elapsed.Seconds()
	run.Flips = res.Flips
	run.BestEnergy = res.BestEnergy
	if run.WallSeconds > 0 {
		run.FlipsPerSec = float64(res.Flips) / run.WallSeconds
	}

	tts, err := MeasureTTS(TTSSpec{
		Name: p.Name(), Bits: p.N(), Problem: p,
		TargetEnergy: target, Repeats: 1, Cap: s.RunCap, Opt: opt,
	})
	if err != nil {
		return run, err
	}
	if tts.Successes > 0 {
		run.Reached = true
		run.TTTSeconds = tts.MeanSec
	}
	return run, nil
}

// BuildSparseReport measures the instance set on both engines.
func BuildSparseReport(s Scale) (*SparseReport, error) {
	rep := &SparseReport{
		Schema:           "abs-sparse-report/1",
		Scale:            s.Name,
		Generated:        time.Now().UTC().Round(time.Second),
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		NumCPU:           runtime.NumCPU(),
		ThresholdDensity: qubo.DefaultSparseDensityThreshold,
	}
	problems, families, err := sparseInstances(s)
	if err != nil {
		return nil, err
	}
	for i, p := range problems {
		inst := SparseInstance{
			Name:      p.Name(),
			Family:    families[i],
			Bits:      p.N(),
			Density:   p.Density(),
			AutoPicks: qubo.AutoRep(p).String(),
		}
		// One shared target from a calibration run on the auto-selected
		// engine, relaxed so both engines can realistically reach it
		// within the cap; time-to-target then compares like with like.
		best, err := Calibrate(p, s.Calibration, solveOptions())
		if err != nil {
			return nil, err
		}
		target := RelaxTarget(best, 0.95)

		if inst.Dense, err = measureEngine(p, core.StorageDense, target, s); err != nil {
			return nil, err
		}
		if inst.Sparse, err = measureEngine(p, core.StorageSparse, target, s); err != nil {
			return nil, err
		}
		if inst.Dense.FlipsPerSec > 0 {
			inst.FlipRatio = inst.Sparse.FlipsPerSec / inst.Dense.FlipsPerSec
		}
		rep.Instances = append(rep.Instances, inst)
	}
	return rep, nil
}

// CheckSparseRatios enforces the PR's acceptance criteria on a report:
// the sparse engine must deliver at least minSparseRatio× the dense
// flips/sec on every instance whose density is below the auto
// threshold, and must not have been auto-selected into a regression on
// dense instances (auto must pick dense above the threshold). It is the
// assertion behind `abs-bench -sparse-report -assert-ratio`.
func CheckSparseRatios(rep *SparseReport, minSparseRatio float64) error {
	for _, inst := range rep.Instances {
		if inst.Density < rep.ThresholdDensity {
			if inst.FlipRatio < minSparseRatio {
				return fmt.Errorf("bench: %s (density %.4f): sparse/dense flip ratio %.2f below required %.2f",
					inst.Name, inst.Density, inst.FlipRatio, minSparseRatio)
			}
			if inst.AutoPicks != "sparse" {
				return fmt.Errorf("bench: %s (density %.4f): auto picked %s, want sparse",
					inst.Name, inst.Density, inst.AutoPicks)
			}
		} else if inst.AutoPicks != "dense" {
			return fmt.Errorf("bench: %s (density %.4f): auto picked %s, want dense",
				inst.Name, inst.Density, inst.AutoPicks)
		}
	}
	return nil
}

// WriteSparseReport builds the report and writes it as indented JSON.
func WriteSparseReport(w io.Writer, s Scale) error {
	rep, err := BuildSparseReport(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("encode sparse report: %w", err)
	}
	return nil
}
