package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/qubo"
	"abs/internal/rng"
)

type specMetric struct{ Name, Unit string }

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// tests hold the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestWorkloadsEmitEveryMetric runs every workload at the tiny scale,
// untraced and traced, and checks the result line carries exactly
// BENCHMARK.json's metrics with their units and no failure.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, name := range workloadNames() {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := runConfig{
					workload: name, scale: scales["tiny"], runSeed: 3, instanceSeed: DefaultInstanceSeed,
					measure: 300 * time.Millisecond, trace: trace == 1, out: t.TempDir(),
				}
				got, err := execute(cfg, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				// The result line is the outcome marshalled: check what it
				// carries after a round trip.
				line, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				var oc outcome
				if err := json.Unmarshal(line, &oc); err != nil {
					t.Fatal(err)
				}
				if !oc.Correct || oc.Failed != 0 || oc.Attempted < 1 {
					t.Errorf("outcome correct=%v attempted=%d failed=%d", oc.Correct, oc.Attempted, oc.Failed)
				}
				if len(oc.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(oc.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := oc.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestCheckerRejectsTamperedEnergy(t *testing.T) {
	p := denseInstance(48, 1)
	x := bitvec.Random(48, rng.New(5))
	e := p.Energy(x)
	if err := checkSolution(p, x, e); err != nil {
		t.Fatalf("honest result rejected: %v", err)
	}
	if err := checkSolution(p, x, e-1); err == nil {
		t.Error("tampered energy accepted")
	}
	if err := checkSolution(p, bitvec.New(47), 0); err == nil {
		t.Error("wrong-width vector accepted")
	}
}

// TestFailedOperationFailsTheRun checks a failed check reaches the
// outcome, and is kept out of the timings.
func TestFailedOperationFailsTheRun(t *testing.T) {
	ph := phase{ops: []op{
		{wall: time.Second, evaluated: 10, ratio: 1},
		{wall: 3 * time.Second, evaluated: 30, err: errors.New("tampered")},
	}, wall: 4 * time.Second}
	oc := ph.outcome(endToEnd(ph, 1), endToEndMetrics)
	if oc.Correct || oc.Failed != 1 || oc.Attempted != 2 {
		t.Errorf("outcome correct=%v attempted=%d failed=%d, want false/2/1", oc.Correct, oc.Attempted, oc.Failed)
	}
	if got := oc.Metrics["solve_s"].Value; got != 1 {
		t.Errorf("solve_s = %v, want 1: only the successful operation counts", got)
	}
	if got := oc.Metrics["search_rate"].Value; got != 10 {
		t.Errorf("search_rate = %v, want 10: only the successful operation counts", got)
	}
}

// TestInstancesRegenerateFromSeed checks one seed always gives the same
// instance and the held-out seed a different one.
func TestInstancesRegenerateFromSeed(t *testing.T) {
	sc := scales["tiny"]
	a, err := allInstances(sc, DefaultInstanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := allInstances(sc, DefaultInstanceSeed)
	c, _ := allInstances(sc, HeldOutInstanceSeed)
	for i := range a {
		if !sameProblem(a[i].p, b[i].p) || a[i].p.Name() != b[i].p.Name() {
			t.Errorf("%s: same seed gave a different instance", a[i].p.Name())
		}
		if sameProblem(a[i].p, c[i].p) {
			t.Errorf("%s: held-out seed gave the same instance", a[i].p.Name())
		}
	}
}

func sameProblem(a, b *qubo.Problem) bool {
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.Weight(i, j) != b.Weight(i, j) {
				return false
			}
		}
	}
	return true
}

// TestEveryInstanceHasAReference checks reference.json covers every
// instance either scale solves, at both instance seeds.
func TestEveryInstanceHasAReference(t *testing.T) {
	for name, sc := range scales {
		for _, seed := range []uint64{DefaultInstanceSeed, HeldOutInstanceSeed} {
			insts, err := allInstances(sc, seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, in := range insts {
				if _, err := referenceEnergy(in.p.Name()); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.b", Start: 30, End: 60}, // overlaps core.a
		{ID: 4, Parent: 2, Name: "qubo.c", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "core.d", Start: 90, End: 120}, // runs past its parent
	}
	want := []time.Duration{100 - 50 - 10, 30 - 10, 30, 10, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("%s self = %v, want %v", spans[i].Name, got, want[i])
		}
	}
	_, byLayer := summarize(spans)
	self := map[string]time.Duration{}
	for _, st := range byLayer {
		self[st.Name] = st.Self
	}
	if self["bench"] != 40 || self["core"] != 80 || self["qubo"] != 10 {
		t.Errorf("layer self times %v, want bench 40, core 80, qubo 10", self)
	}
}

func TestCompareRefusesDifferentHardware(t *testing.T) {
	a := stamp{Workload: "dense-solve", Kernel: "avx2", Accelerated: true, NumCPU: 2, GOMAXPROCS: 2}
	if why := incomparable(a, a); why != "" {
		t.Errorf("identical stamps refused: %s", why)
	}
	b := a
	b.Kernel, b.Accelerated = "generic", false
	c := a
	c.NumCPU = 4
	for _, other := range []stamp{b, c} {
		if incomparable(a, other) == "" {
			t.Errorf("compared %v with %v", a, other)
		}
	}
}
