package abs_test

// This file lives outside package abs on purpose: it proves every type
// the public surface hands out is nameable by an importer. Without the
// re-exports, naming `abs.Progress`, BlockStat, Occupancy, Telemetry, …
// does not compile because they resolve to internal packages.

import (
	"context"
	"errors"
	"testing"
	"time"

	"abs"
	"abs/internal/telemetry"
)

// TestReexportedTypesAreNameable exercises the re-exported field types
// by name from an external package, on a real (tiny) run.
func TestReexportedTypesAreNameable(t *testing.T) {
	opt := abs.DefaultOptions()
	opt.MaxDuration = 100 * time.Millisecond
	opt.Telemetry = abs.NewTelemetry()
	opt.Tracer = abs.NewTracer(1 << 10)
	opt.Faults = abs.NewFaultPlan(1)

	res, err := abs.SolveContext(context.Background(), abs.RandomProblem(32, 9), opt)
	if err != nil {
		t.Fatal(err)
	}

	// Result field types, by name.
	var stats []abs.BlockStat = res.BlockStats
	var occ abs.Occupancy = res.Occupancy
	if len(stats) == 0 || occ.ActiveBlocks == 0 {
		t.Errorf("result lacks block stats (%d) or occupancy (%+v)", len(stats), occ)
	}

	// Telemetry plane types, by name. The abstelemetryoff build
	// compiles the instruments out, so only a telemetry build records.
	var reg *abs.Telemetry = opt.Telemetry
	if snap := reg.Snapshot(); telemetry.Enabled && len(snap.Series) == 0 {
		t.Error("run registered no instruments")
	}
	var events []abs.TraceEvent = opt.Tracer.Events()
	if telemetry.Enabled && len(events) == 0 {
		t.Fatal("tracer recorded no events")
	}
	if len(events) > 0 {
		var kind abs.EventKind = events[0].Kind
		if kind == "" {
			t.Error("event kind is empty")
		}
	}

	// Fault plumbing, by name.
	var counts abs.FaultCounts = opt.Faults.Counts()
	if n := counts.Crashes + counts.Stalls + counts.Corruptions; n != 0 {
		t.Errorf("empty fault plan injected %d faults", n)
	}
}

// TestReexportedServiceSurface checks the Solver-side names: job states
// compare as constants and the sentinel errors work with errors.Is.
func TestReexportedServiceSurface(t *testing.T) {
	opt := abs.DefaultOptions()
	solver, err := abs.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()

	j, err := solver.Submit(context.Background(), abs.RandomProblem(32, 3),
		abs.JobSpec{MaxDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); !errors.Is(err, abs.ErrNotFinished) {
		t.Errorf("live job Result error = %v, want ErrNotFinished", err)
	}

	var st abs.JobStatus = j.Status()
	var _ abs.Progress = st.Progress
	var state abs.JobState = st.State
	if state != abs.JobQueued && state != abs.JobRunning {
		t.Errorf("fresh job state = %s", state)
	}
	if state.Terminal() {
		t.Errorf("state %s is terminal before the job ran", state)
	}

	j.Cancel()
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := j.Status().State; got != abs.JobCancelled {
		t.Errorf("state after cancel = %s, want %s", got, abs.JobCancelled)
	}

	if err := solver.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Submit(context.Background(), abs.RandomProblem(8, 1), abs.JobSpec{}); !errors.Is(err, abs.ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

// TestReexportedClusterSurface runs a miniature one-process cluster
// entirely through the public names: coordinator, local transport,
// worker, report and sentinel errors.
func TestReexportedClusterSurface(t *testing.T) {
	p := abs.RandomProblem(32, 11)
	coord, err := abs.NewCoordinator(p, abs.CoordinatorConfig{
		Seed:     7,
		MaxFlips: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var tr abs.ClusterTransport = abs.NewLocalTransport(coord)
	w, err := abs.NewWorker(abs.WorkerConfig{
		Transport: tr,
		WorkerID:  "pub-1",
		Device:    abs.ScaledDevice(1),
		Exchange:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var report *abs.WorkerReport
	if report, err = w.Run(ctx); err != nil {
		t.Fatalf("worker Run: %v", err)
	}
	if !report.CoordinatorDone {
		t.Error("worker never saw the coordinator finish")
	}

	var res abs.ClusterResult = coord.Status()
	if !res.BestKnown || p.Energy(res.Best) != res.BestEnergy {
		t.Errorf("cluster best (%d, %v) is not an honest pool entry", res.BestEnergy, res.BestKnown)
	}

	coord.Close()
	if _, err := tr.Heartbeat(ctx, abs.HeartbeatRequest{WorkerID: "pub-1"}); !errors.Is(err, abs.ErrClusterDone) {
		t.Errorf("heartbeat after close = %v, want ErrClusterDone", err)
	}
}

// TestReexportedDurabilityAndChaosSurface drives the crash-recovery and
// fault-injection plumbing entirely through the public names: StoreDir,
// a checkpointing coordinator, RestoreCoordinator, and a chaos-wrapped
// transport with its counts and sentinel error.
func TestReexportedDurabilityAndChaosSurface(t *testing.T) {
	var st abs.Store
	st, err := abs.StoreDir(t.TempDir())
	if err != nil {
		t.Fatalf("StoreDir: %v", err)
	}
	defer st.Close()

	p := abs.RandomProblem(32, 21)
	cfg := abs.CoordinatorConfig{
		Seed:       7,
		MaxFlips:   20_000,
		Store:      st,
		Checkpoint: 10 * time.Millisecond,
	}
	coord, err := abs.NewCoordinator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A delay-only chaos schedule: visible in the counts, harmless to
	// the run.
	var spec abs.ChaosSpec = abs.ChaosSpec{
		Seed:     3,
		DelayMin: time.Microsecond,
		DelayMax: 100 * time.Microsecond,
	}
	var ctr *abs.ChaosTransport = abs.NewChaosTransport(abs.NewLocalTransport(coord), spec)
	w, err := abs.NewWorker(abs.WorkerConfig{
		Transport: ctr,
		WorkerID:  "chaos-pub",
		Device:    abs.ScaledDevice(1),
		Exchange:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := w.Run(ctx); err != nil {
		t.Fatalf("worker Run under chaos delay: %v", err)
	}
	var counts abs.ChaosCounts = ctr.Counts()
	if counts.Delayed == 0 {
		t.Errorf("chaos transport never delayed a call: %+v", counts)
	}

	pre := coord.Status()
	coord.Close()

	// The run checkpointed through the public Store: a new incarnation
	// restores the same best.
	c2, restored, err := abs.RestoreCoordinator(p, cfg)
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	defer c2.Close()
	if !restored {
		t.Fatal("RestoreCoordinator found no checkpoint")
	}
	if got := c2.Status(); !got.BestKnown || got.BestEnergy > pre.BestEnergy {
		t.Errorf("restored best (%d, known %v) regressed from %d", got.BestEnergy, got.BestKnown, pre.BestEnergy)
	}

	// A certain-drop schedule surfaces the sentinel by name.
	drop := abs.NewChaosTransport(abs.NewLocalTransport(c2), abs.ChaosSpec{Seed: 1, Drop: 1})
	if _, err := drop.Heartbeat(ctx, abs.HeartbeatRequest{WorkerID: "x"}); !errors.Is(err, abs.ErrChaosInjected) {
		t.Errorf("dropped call = %v, want ErrChaosInjected", err)
	}
}

// TestReexportedDiversitySurface checks the tuning names: the Tuning
// type, its parser and the spec type inside it, driven through a real
// diversified race run whose BackendStats expose the unit split.
func TestReexportedDiversitySurface(t *testing.T) {
	off, err := abs.ParseTuning("radius=0")
	if err != nil {
		t.Fatal(err)
	}
	var spec abs.DiversitySpec = off.Diversity
	if spec.Radius != 0 || spec.Buckets == 0 {
		t.Errorf(`ParseTuning("radius=0") = %+v; want radius 0 with default buckets`, spec)
	}
	var tuning abs.Tuning
	if tuning, err = abs.ParseTuning("backend=race,radius=2"); err != nil {
		t.Fatal(err)
	}
	if tuning.Backend != abs.BackendRace || tuning.Diversity.Radius != 2 {
		t.Fatalf("ParseTuning = %+v", tuning)
	}
	if _, err := abs.ParseTuning("turbo=1"); err == nil {
		t.Error("ParseTuning accepted an unknown key")
	}
	if _, err := abs.ParseTuning("backend=columnar"); !errors.Is(err, abs.ErrUnknownBackend) {
		t.Errorf("unknown backend error %v does not match ErrUnknownBackend", err)
	}

	opt := abs.DefaultOptions()
	opt.MaxDuration = 100 * time.Millisecond
	opt.Tuning = tuning
	res, err := abs.SolveContext(context.Background(), abs.RandomProblem(32, 11), opt)
	if err != nil {
		t.Fatal(err)
	}
	var stat abs.BackendStat // the per-backend tally, by name
	total := 0
	for _, stat = range res.BackendStats {
		total += stat.Units
	}
	if total != res.Blocks {
		t.Errorf("race units sum %d != %d blocks", total, res.Blocks)
	}
}
