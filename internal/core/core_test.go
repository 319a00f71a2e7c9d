package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
)

func randomProblem(n int, seed uint64) *qubo.Problem {
	p := qubo.New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p.SetWeight(i, j, int16(r.Intn(201)-100))
		}
	}
	return p
}

func tinyOptions() Options {
	o := DefaultOptions()
	o.Device = gpusim.ScaledCPU(1)
	o.LocalSteps = 128
	return o
}

func TestSolveRequiresStopCondition(t *testing.T) {
	p := randomProblem(32, 1)
	o := tinyOptions()
	if _, err := Solve(p, o); err == nil {
		t.Fatal("Solve accepted options with no stop condition")
	}
}

func TestSolveValidatesOptions(t *testing.T) {
	p := randomProblem(32, 1)
	bad := tinyOptions()
	bad.MaxDuration = time.Millisecond
	bad.NumGPUs = 0
	if _, err := Solve(p, bad); err == nil {
		t.Error("NumGPUs=0 accepted")
	}
	bad = tinyOptions()
	bad.MaxDuration = time.Millisecond
	bad.LocalSteps = -1
	if _, err := Solve(p, bad); err == nil {
		t.Error("negative LocalSteps accepted")
	}
	bad = tinyOptions()
	bad.MaxDuration = time.Millisecond
	bad.WindowMin, bad.WindowMax = 10, 5
	if _, err := Solve(p, bad); err == nil {
		t.Error("inverted window range accepted")
	}
	bad = tinyOptions()
	bad.MaxDuration = time.Millisecond
	bad.BitsPerThread = 1
	if _, err := Solve(randomProblem(2048, 2), bad); err == nil {
		t.Error("infeasible block shape accepted")
	}
}

func TestSolveFindsExactOptimumSmall(t *testing.T) {
	p := randomProblem(24, 3)
	_, optE, err := qubo.ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.TargetEnergy = &optE
	o.MaxDuration = 10 * time.Second // safety net; expected to hit target fast
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("did not reach optimum %d; best %d", optE, res.BestEnergy)
	}
	if res.BestEnergy > optE {
		t.Errorf("best energy %d worse than target %d", res.BestEnergy, optE)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
	}
}

func TestSolveStopsOnDuration(t *testing.T) {
	p := randomProblem(64, 4)
	o := tinyOptions()
	o.MaxDuration = 50 * time.Millisecond
	start := time.Now()
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReachedTarget {
		t.Error("ReachedTarget true without a target")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("duration stop took %v", elapsed)
	}
	if res.Flips == 0 {
		t.Error("no flips performed in 50ms")
	}
	if res.Evaluated != res.Flips*64 {
		t.Errorf("Evaluated = %d, want Flips·n = %d", res.Evaluated, res.Flips*64)
	}
	if res.SearchRate <= 0 {
		t.Error("search rate not computed")
	}
}

func TestSolveStopsOnFlipBudget(t *testing.T) {
	p := randomProblem(64, 5)
	o := tinyOptions()
	o.MaxFlips = 10000
	o.MaxDuration = 10 * time.Second // safety net
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips < 10000 {
		t.Errorf("stopped at %d flips, budget 10000", res.Flips)
	}
	// Blocks finish their current round, so some overshoot is expected,
	// but it should be bounded by roughly blocks · round length.
	slack := uint64(res.Blocks*o.LocalSteps*4 + 65536)
	if res.Flips > o.MaxFlips+slack {
		t.Errorf("flip overshoot too large: %d >> %d", res.Flips, o.MaxFlips)
	}
}

func TestSolveImprovesOverRandom(t *testing.T) {
	p := randomProblem(128, 6)
	o := tinyOptions()
	o.MaxDuration = 200 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	// A dense random instance with symmetric weights has strongly
	// negative optima; any functioning search lands well below zero.
	if res.BestEnergy >= 0 {
		t.Errorf("best energy %d did not improve below 0", res.BestEnergy)
	}
	if res.Inserted == 0 {
		t.Error("no solutions admitted to the pool")
	}
}

func TestSolveBlockCountMatchesOccupancy(t *testing.T) {
	p := randomProblem(256, 7)
	o := tinyOptions()
	o.Device = gpusim.ScaledCPU(2)
	o.NumGPUs = 2
	o.BitsPerThread = 16
	o.MaxDuration = 30 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := o.Device.Occupancy(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != occ.ActiveBlocks*2 {
		t.Errorf("blocks = %d, want %d", res.Blocks, occ.ActiveBlocks*2)
	}
	if res.Occupancy.ThreadsPerBlock != occ.ThreadsPerBlock {
		t.Error("occupancy not propagated to result")
	}
	if res.ModelledRate <= 0 {
		t.Error("modelled rate missing")
	}
}

func TestSolveAutoSelectsBitsPerThread(t *testing.T) {
	p := randomProblem(1024, 8)
	o := tinyOptions()
	o.MaxDuration = 20 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	// Auto-selection must pick the modelled best (p=16 for 1k bits).
	if res.Occupancy.BitsPerThread != 16 {
		t.Errorf("auto bits/thread = %d, want 16", res.Occupancy.BitsPerThread)
	}
}

// The §2.1 window ladder itself now lives in internal/backend
// (WindowFor) and is unit-tested there; nothing Options-specific
// remains to cover here.

func TestSolveSingleBlockConfiguration(t *testing.T) {
	// A device trimmed to one resident block must still run the whole
	// host/device protocol and produce a verified solution. (Runs are
	// not bit-reproducible even with one block: the host generates new
	// targets as solutions arrive, and how many rounds fit between
	// target updates depends on scheduling — the framework is
	// asynchronous by design, §3.)
	p := randomProblem(96, 9)
	o := tinyOptions()
	o.Device = gpusim.ScaledCPU(1)
	o.Device.MaxBlocksPerSM = 1 // force exactly one block
	o.BitsPerThread = 1
	o.Device.MaxThreadsPerBlock = 96
	o.Device.MaxThreadsPerSM = 96
	o.Device.MaxWarpsPerSM = 3
	o.MaxFlips = 20000
	o.MaxDuration = 10 * time.Second
	o.Seed = 42
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 1 {
		t.Fatalf("expected 1 block, got %d", res.Blocks)
	}
	if res.BestEnergy >= 0 {
		t.Errorf("single block failed to improve: %d", res.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
	}
}

func TestPaperOptionsShape(t *testing.T) {
	o := PaperOptions()
	if o.NumGPUs != 4 || o.Device.SMs != 68 {
		t.Errorf("paper options wrong: %d GPUs, %d SMs", o.NumGPUs, o.Device.SMs)
	}
}

func TestSolveAutoSelectsSparseStorage(t *testing.T) {
	// A sparse graph-like instance must auto-select the adjacency
	// engine; a dense instance the paper kernel.
	sparse := qubo.New(200)
	r := rng.New(31)
	for e := 0; e < 400; e++ {
		i, j := r.Intn(200), r.Intn(200)
		if i != j {
			sparse.SetWeight(i, j, int16(r.Intn(5)+1))
		}
	}
	for i := 0; i < 200; i++ {
		sparse.SetWeight(i, i, int16(-r.Intn(10)))
	}
	o := tinyOptions()
	o.MaxDuration = 50 * time.Millisecond
	res, err := Solve(sparse, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Storage != StorageSparse {
		t.Errorf("storage = %v, want sparse", res.Storage)
	}
	if res.EvaluatedPerFlip >= 200 {
		t.Errorf("sparse EvaluatedPerFlip = %v", res.EvaluatedPerFlip)
	}

	res2, err := Solve(randomProblem(64, 32), o)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Storage != StorageDense {
		t.Errorf("dense instance got storage %v", res2.Storage)
	}
}

func TestSolveForcedStorageAgreesOnQuality(t *testing.T) {
	// Dense and sparse engines implement the same mathematics; on a
	// small instance both must reach the exact optimum.
	p := randomProblem(20, 33)
	_, optE, err := qubo.ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Storage{StorageDense, StorageSparse} {
		o := tinyOptions()
		o.Tuning.Storage = st
		o.TargetEnergy = &optE
		o.MaxDuration = 10 * time.Second
		res, err := Solve(p, o)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if !res.ReachedTarget {
			t.Errorf("%v engine missed optimum %d (best %d)", st, optE, res.BestEnergy)
		}
	}
}

func TestStorageString(t *testing.T) {
	if StorageAuto.String() != "auto" || StorageDense.String() != "dense" ||
		StorageSparse.String() != "sparse" || Storage(9).String() == "" {
		t.Error("Storage.String wrong")
	}
}

// progressLines is an Options.ProgressWriter that keeps every line.
type progressLines struct {
	mu    sync.Mutex
	lines []string
}

func (w *progressLines) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lines = append(w.lines, string(b))
	return len(b), nil
}

// TestSolveProgressCallback checks the progress sink, ProgressWriter:
// every line parses as Progress.String, and the flip counter never goes
// backwards.
func TestSolveProgressCallback(t *testing.T) {
	p := randomProblem(64, 50)
	o := tinyOptions()
	o.MaxDuration = 300 * time.Millisecond
	o.ProgressEvery = 50 * time.Millisecond
	var w progressLines
	o.ProgressWriter = &w
	if _, err := Solve(p, o); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.lines) < 1 { // full-suite CPU contention can starve the cadence; one line must still land
		t.Fatalf("no progress line in 300ms at 50ms cadence")
	}
	var lastFlips uint64
	for _, line := range w.lines {
		var elapsed float64
		var best string
		var flips uint64
		if _, err := fmt.Sscanf(line, "[%fs] best %s %d flips,", &elapsed, &best, &flips); err != nil {
			t.Fatalf("progress line %q: %v", line, err)
		}
		if flips < lastFlips {
			t.Errorf("flip counter went backwards: %d after %d", flips, lastFlips)
		}
		lastFlips = flips
	}
}

func TestSolveWarmStart(t *testing.T) {
	p := randomProblem(40, 51)
	// Get a decent solution first, then warm-start a second run with it
	// and confirm the pool immediately contains its region: the warm
	// run's best must be at least as good as the seed's energy.
	o := tinyOptions()
	o.MaxDuration = 150 * time.Millisecond
	first, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	o2 := tinyOptions()
	o2.MaxDuration = 100 * time.Millisecond
	o2.WarmStarts = []*bitvec.Vector{first.Best}
	second, err := Solve(p, o2)
	if err != nil {
		t.Fatal(err)
	}
	if second.BestEnergy > first.BestEnergy {
		t.Errorf("warm-started run (%d) worse than its seed (%d)",
			second.BestEnergy, first.BestEnergy)
	}
}

func TestSolveWarmStartValidation(t *testing.T) {
	p := randomProblem(16, 52)
	o := tinyOptions()
	o.MaxDuration = time.Millisecond
	o.WarmStarts = []*bitvec.Vector{bitvec.New(7)}
	if _, err := Solve(p, o); err == nil {
		t.Error("wrong-length warm start accepted")
	}
	o.WarmStarts = []*bitvec.Vector{nil}
	if _, err := Solve(p, o); err == nil {
		t.Error("nil warm start accepted")
	}
}

func TestBlockStatsRecorded(t *testing.T) {
	p := randomProblem(96, 60)
	o := tinyOptions()
	o.Device = gpusim.ScaledCPU(1)
	o.MaxDuration = 120 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BlockStats) != res.Blocks {
		t.Fatalf("got %d block stats for %d blocks", len(res.BlockStats), res.Blocks)
	}
	var totalFlips, totalPublished, totalInserted uint64
	windows := map[int]bool{}
	for i, bs := range res.BlockStats {
		if bs.Device != 0 {
			t.Errorf("block %d on device %d, want 0", i, bs.Device)
		}
		if bs.Window < 1 || bs.Window > 96 {
			t.Errorf("block %d window %d out of range", i, bs.Window)
		}
		windows[bs.Window] = true
		totalFlips += bs.Flips
		totalPublished += bs.Published
		totalInserted += bs.Inserted
	}
	// Per-block flips may lag the aggregate by at most one in-flight
	// round per block (blocks add to the aggregate per round).
	if totalFlips > res.Flips {
		t.Errorf("per-block flips %d exceed aggregate %d", totalFlips, res.Flips)
	}
	if res.Flips-totalFlips > uint64(res.Blocks*o.LocalSteps*2) {
		t.Errorf("per-block flips %d lag aggregate %d too far", totalFlips, res.Flips)
	}
	if totalPublished == 0 {
		t.Error("no block published anything")
	}
	if totalInserted != res.Inserted {
		t.Errorf("per-block inserted %d != host inserted %d", totalInserted, res.Inserted)
	}
	if len(windows) < 2 && res.Blocks > 4 {
		t.Error("window ladder has a single rung across many blocks")
	}
}
