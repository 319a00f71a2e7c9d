package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"abs/internal/backend"
	"abs/internal/core"
	"abs/internal/qubo"
)

// BackendReport is the per-backend time-to-target comparison written
// by `abs-bench -backend-report FILE` (BENCH_pr8.json in the repo):
// every registered solver backend racing the same instance families —
// the sparse sweep's G-set-style, Chimera and dense-random set — under
// the same budget and the same calibrated target, the measured basis
// for the README's "Choosing a backend" guidance.
type BackendReport struct {
	Schema    string    `json:"schema"` // "abs-backend-report/1"
	Scale     string    `json:"scale"`
	Generated time.Time `json:"generated"`
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	// Backends echoes the registry the sweep ran, in sweep order.
	Backends  []string          `json:"backends"`
	Instances []BackendInstance `json:"instances"`
}

// BackendInstance is one instance measured on every backend.
type BackendInstance struct {
	Name    string  `json:"name"`
	Family  string  `json:"family"` // gset-random | chimera | dense-random
	Bits    int     `json:"bits"`
	Density float64 `json:"density"`
	// TargetEnergy is the calibrated shared target all backends chase.
	TargetEnergy int64 `json:"target_energy"`

	Runs []BackendRun `json:"runs"`

	// Winner is the backend with the best outcome on this instance:
	// among those that reached the target, the fastest; otherwise the
	// one with the lowest best energy.
	Winner string `json:"winner"`
}

// BackendRun is one backend's measurement on one instance. Every field
// comes from the same target-capped solve.
type BackendRun struct {
	Backend     string  `json:"backend"`
	WallSeconds float64 `json:"wall_seconds"`
	Flips       uint64  `json:"flips"`
	BestEnergy  int64   `json:"best_energy"`
	// TTTSeconds is the wall time at which the backend reached the
	// shared target (0 when missed within the cap; Reached tells the
	// two zeros apart).
	TTTSeconds float64 `json:"ttt_seconds"`
	Reached    bool    `json:"reached"`
}

// measureBackend runs one instance under one pinned backend: a single
// solve that stops at the shared calibrated target or at the scale's
// run cap, whichever comes first. Wall, flips and best energy are that
// run's; so are reached and time-to-target.
func measureBackend(p *qubo.Problem, name string, target int64, s Scale) (BackendRun, error) {
	opt := solveOptions()
	opt.Tuning.Backend = core.Backend(name)
	opt.TargetEnergy = &target
	opt.MaxDuration = s.RunCap
	opt.MaxFlips = 0
	res, err := core.Solve(p, opt)
	if err != nil {
		return BackendRun{Backend: name}, err
	}
	run := BackendRun{
		Backend:     name,
		WallSeconds: res.Elapsed.Seconds(),
		Flips:       res.Flips,
		BestEnergy:  res.BestEnergy,
		Reached:     res.ReachedTarget,
	}
	if run.Reached {
		run.TTTSeconds = run.WallSeconds
	}
	return run, nil
}

// betterRun reports whether a beats b: reaching the target beats not
// reaching it, then faster time-to-target, then lower best energy.
func betterRun(a, b BackendRun) bool {
	switch {
	case a.Reached != b.Reached:
		return a.Reached
	case a.Reached:
		return a.TTTSeconds < b.TTTSeconds
	default:
		return a.BestEnergy < b.BestEnergy
	}
}

// BuildBackendReport measures the instance set on every registered
// backend.
func BuildBackendReport(s Scale) (*BackendReport, error) {
	rep := &BackendReport{
		Schema:    "abs-backend-report/1",
		Scale:     s.Name,
		Generated: time.Now().UTC().Round(time.Second),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Backends:  backend.Names(),
	}
	problems, families, err := sparseInstances(s)
	if err != nil {
		return nil, err
	}
	for i, p := range problems {
		// One shared target from a calibration run under the default
		// configuration, relaxed so every backend can realistically
		// reach it within the cap; time-to-target then compares like
		// with like.
		best, err := Calibrate(p, s.Calibration, solveOptions())
		if err != nil {
			return nil, err
		}
		target := RelaxTarget(best, 0.95)
		inst := BackendInstance{
			Name:         p.Name(),
			Family:       families[i],
			Bits:         p.N(),
			Density:      p.Density(),
			TargetEnergy: target,
		}
		for _, name := range rep.Backends {
			run, err := measureBackend(p, name, target, s)
			if err != nil {
				return nil, err
			}
			if inst.Winner == "" || betterRun(run, inst.Runs[indexOfRun(inst.Runs, inst.Winner)]) {
				inst.Winner = run.Backend
			}
			inst.Runs = append(inst.Runs, run)
		}
		rep.Instances = append(rep.Instances, inst)
	}
	return rep, nil
}

// indexOfRun finds a run by backend name (the winner always exists in
// the slice by construction).
func indexOfRun(runs []BackendRun, name string) int {
	for i, r := range runs {
		if r.Backend == name {
			return i
		}
	}
	return 0
}

// WriteBackendReport builds the report and writes it as indented JSON.
func WriteBackendReport(w io.Writer, s Scale) error {
	rep, err := BuildBackendReport(s)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("encode backend report: %w", err)
	}
	return nil
}
