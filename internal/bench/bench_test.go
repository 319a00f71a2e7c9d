package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"abs/internal/backend"
	"abs/internal/core"
	"abs/internal/qubo"
	"abs/internal/racedetect"
	"abs/internal/randqubo"
	"abs/internal/rng"
)

// microScale keeps unit tests fast on a single core.
func microScale() Scale {
	return Scale{
		Name:            "micro",
		Calibration:     40 * time.Millisecond,
		RunCap:          300 * time.Millisecond,
		Repeats:         1,
		RateBudget:      30 * time.Millisecond,
		MaxBits:         300,
		MaxMeasuredBits: 1024,
	}
}

func smallProblem(n int, seed uint64) *qubo.Problem {
	p := qubo.New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p.SetWeight(i, j, int16(r.Intn(201)-100))
		}
	}
	return p
}

func TestCalibrateFindsNegativeEnergy(t *testing.T) {
	p := smallProblem(64, 1)
	e, err := Calibrate(p, 100*time.Millisecond, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e >= 0 {
		t.Errorf("calibrated best %d not negative", e)
	}
}

func TestRelaxTarget(t *testing.T) {
	if RelaxTarget(-1000, 0.99) != -990 {
		t.Errorf("RelaxTarget(-1000, 0.99) = %d", RelaxTarget(-1000, 0.99))
	}
	if RelaxTarget(-1000, 1.0) != -1000 {
		t.Error("identity relax broken")
	}
}

func TestMeasureTTSHitsEasyTarget(t *testing.T) {
	p := smallProblem(32, 2)
	res, err := MeasureTTS(TTSSpec{
		Name:         "easy",
		Bits:         32,
		Problem:      p,
		TargetEnergy: -1, // trivially reachable on a dense random instance
		Repeats:      2,
		Cap:          2 * time.Second,
		Opt:          core.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 2 {
		t.Errorf("successes = %d/2", res.Successes)
	}
	if res.MeanSec <= 0 {
		t.Error("mean time not recorded")
	}
	if res.BestSeen > -1 {
		t.Error("best seen worse than target despite success")
	}
}

func TestMeasureTTSMissReportsZeroSuccess(t *testing.T) {
	p := smallProblem(32, 3)
	lo, _ := p.EnergyBound()
	res, err := MeasureTTS(TTSSpec{
		Name:         "impossible",
		Bits:         32,
		Problem:      p,
		TargetEnergy: lo - 1, // below the energy lower bound: unreachable
		Repeats:      1,
		Cap:          50 * time.Millisecond,
		Opt:          core.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 0 {
		t.Error("impossible target reported success")
	}
	if res.MeanSec != 0 {
		t.Error("mean time for zero successes should be 0")
	}
}

// TestMeasureBackendRowIsOneRun pins the backend report's row
// contract: every field comes from one target-capped solve, so a row
// that says reached has a best energy at or below the target and a
// time-to-target equal to its wall time, and a row that missed has a
// zero time-to-target.
func TestMeasureBackendRowIsOneRun(t *testing.T) {
	p := smallProblem(24, 4)
	lo, _ := p.EnergyBound()
	for _, name := range backend.Names() {
		for _, tc := range []struct {
			target int64
			cap    time.Duration
			reach  bool
		}{
			{-1, 5 * time.Second, true},             // trivially reachable on a dense random instance
			{lo - 1, 100 * time.Millisecond, false}, // below the energy lower bound
		} {
			run, err := measureBackend(p, name, tc.target, Scale{RunCap: tc.cap})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if run.Backend != name || run.Flips == 0 || run.WallSeconds <= 0 {
				t.Errorf("%s target %d: incomplete row %+v", name, tc.target, run)
			}
			if run.Reached != tc.reach {
				t.Errorf("%s target %d: reached %v, want %v (best %d)", name, tc.target, run.Reached, tc.reach, run.BestEnergy)
			}
			if run.Reached && (run.BestEnergy > tc.target || run.TTTSeconds != run.WallSeconds) {
				t.Errorf("%s: reached row %+v has best above target %d or ttt != wall", name, run, tc.target)
			}
			if !run.Reached && run.TTTSeconds != 0 {
				t.Errorf("%s: missed row %+v reports a time-to-target", name, run)
			}
		}
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[float64]string{
		1.24e12: "1.24 T/s",
		2.04e10: "20.4 G/s",
		5e6:     "5 M/s",
		1500:    "1.5 k/s",
		12:      "12 /s",
		0:       "-",
	}
	for in, want := range cases {
		if got := FormatRate(in); got != want {
			t.Errorf("FormatRate(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	if FormatSeconds(0, false) != "miss" {
		t.Error("miss formatting")
	}
	if FormatSeconds(1.79, true) != "1.79" {
		t.Errorf("got %q", FormatSeconds(1.79, true))
	}
}

func TestTable2Emits20Rows(t *testing.T) {
	var buf bytes.Buffer
	s := microScale()
	s.MaxMeasuredBits = 0 // model-only: keep the test fast
	if err := Table2(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines < 21 {
		t.Errorf("Table 2 output too short:\n%s", out)
	}
	for _, want := range []string{"1024", "32768", "1088", "Bits/thread"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable1cMicro(t *testing.T) {
	var buf bytes.Buffer
	s := microScale()
	s.MaxBits = 1100 // include only the 1024-bit row
	s.Calibration = 150 * time.Millisecond
	s.RunCap = 2 * time.Second
	if err := Table1c(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1024") || !strings.Contains(out, "best-found") {
		t.Errorf("unexpected Table 1(c) output:\n%s", out)
	}
	if !strings.Contains(out, "skipped") {
		t.Error("oversized rows not marked skipped")
	}
}

func TestAblationEfficiencyOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationEfficiency(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Alg.1", "Alg.4", "256"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestAblationSelectionOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationSelection(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "offset window") {
		t.Errorf("selection ablation output:\n%s", buf.String())
	}
}

func TestAblationStraightOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationStraight(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "straight search (paper)") || !strings.Contains(out, "zero-restart") {
		t.Errorf("straight ablation output:\n%s", out)
	}
}

func TestMeasureRateProducesRate(t *testing.T) {
	p := randqubo.Generate(256, 256)
	res, err := MeasureRate(p, core.DefaultOptions(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchRate <= 0 {
		t.Error("no search rate measured")
	}
}

func TestTable1aMicro(t *testing.T) {
	s := microScale()
	s.MaxBits = 850 // G1 and G6 families only
	s.Calibration = 80 * time.Millisecond
	s.RunCap = 600 * time.Millisecond
	var buf bytes.Buffer
	if err := Table1a(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"G1", "G6", "skipped", "Target cut"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1(a) missing %q:\n%s", want, out)
		}
	}
}

func TestTable1bMicro(t *testing.T) {
	s := microScale()
	s.MaxBits = 230 // ulysses16-size only
	s.RunCap = 500 * time.Millisecond
	var buf bytes.Buffer
	if err := Table1b(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ulysses16", "bayg29", "skipped", "Target len"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1(b) missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8Micro(t *testing.T) {
	if testing.Short() {
		// Even at micro budgets the 1–4-GPU paper-shape sweep spins up
		// thousands of blocks per point and dominates the package's wall
		// time; the long CI lane and local full runs keep covering it.
		t.Skip("paper-shape multi-GPU sweep in -short mode")
	}
	if racedetect.Enabled {
		// The full paper shape puts up to 4352 compute-bound goroutines
		// on however many cores the host has; under race instrumentation
		// (~20×/op plus serialized atomics) a small machine needs many
		// minutes just to cycle the fleet. The buffer/supervisor protocol
		// is race-tested at realistic-but-smaller shapes in
		// internal/core and internal/gpusim.
		t.Skip("paper-shape fleet is impractical under the race detector")
	}
	var buf bytes.Buffer
	if err := Figure8(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1088", "4352", "4.00×", "linear"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 8 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Micro(t *testing.T) {
	s := microScale()
	var buf bytes.Buffer
	if err := Table3(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"D-Wave 2000Q", "1.24 T/s", "parallel SA baseline", "chimera-native"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
}

func TestAblationStorageMicro(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationStorage(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dense") || !strings.Contains(out, "sparse") {
		t.Errorf("storage ablation output:\n%s", out)
	}
}

func TestAblationAdaptiveMicro(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationAdaptive(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "adaptive") {
		t.Errorf("adaptive ablation output:\n%s", buf.String())
	}
}

func TestAblationLadderMicro(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationLadder(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Window l") || !strings.Contains(out, "Inserted") {
		t.Errorf("ladder ablation output:\n%s", out)
	}
}

func TestAblationPoolMicro(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationPool(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duplicates allowed") {
		t.Errorf("pool ablation output:\n%s", buf.String())
	}
}

func TestAblationParametersMicro(t *testing.T) {
	var buf bytes.Buffer
	if err := AblationParameters(&buf, microScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LocalSteps") || !strings.Contains(out, "4096") {
		t.Errorf("parameters ablation output:\n%s", out)
	}
}
