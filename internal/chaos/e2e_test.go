package chaos

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"abs/internal/cluster"
	"abs/internal/gpusim"
	"abs/internal/randqubo"
	"abs/internal/retry"
	"abs/internal/store"
	"abs/internal/telemetry"
)

// fastReconnect keeps the degraded-mode pacer tight so e2e runs stay
// inside the -short budget.
var fastReconnect = retry.Backoff{Base: 20 * time.Millisecond, Factor: 2, Max: 200 * time.Millisecond, Jitter: 0.25}

func newChaosWorker(t *testing.T, id string, tr cluster.Transport, reg *telemetry.Registry, trc *telemetry.Tracer) *cluster.Worker {
	t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Transport: tr,
		WorkerID:  id,
		Device:    gpusim.ScaledCPU(1),
		Exchange:  10 * time.Millisecond,
		Reconnect: fastReconnect,
		Registry:  reg,
		Tracer:    trc,
	})
	if err != nil {
		t.Fatalf("NewWorker(%s): %v", id, err)
	}
	return w
}

// TestClusterConvergesUnderChaos is the chaos acceptance run: two
// workers on a loopback transport with 5% request drop, reply loss,
// duplicate delivery and jittered delay between them and the
// coordinator. The run must still complete its flip budget, admit an
// honest best, and count no flips twice — the request-ID idempotency
// and retry layers doing their job under fire. Deliberately NOT skipped
// in -short: this is the cheap always-on chaos lane.
func TestClusterConvergesUnderChaos(t *testing.T) {
	// Flips only reach the coordinator on the exchange cadence, and that
	// cadence is scheduler-dependent: an idle multi-core host exchanges
	// every ~10ms, a loaded single-core host closer to ~150ms. The
	// budget is sized so that even on the slow end the run spans enough
	// RPC rounds (roughly a hundred across both workers) for the 15%
	// combined fault rate to fire many times over.
	const flipBudget = 16_000_000
	p := randqubo.Generate(48, 31)
	coord, err := cluster.NewCoordinator(p, cluster.CoordinatorConfig{
		Seed:        5,
		MaxFlips:    flipBudget,
		MaxDuration: 2 * time.Minute, // fail-safe against hangs, not the common path
		LeaseTTL:    time.Second,
		WorkerTTL:   3 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	// Per-worker observability planes: the faults injected into each
	// worker's transport must surface in that worker's trace stream and
	// RPC-latency histograms (asserted below).
	// wfault is each wrapper's dedicated fault stream: fault events
	// carry the victim RPC's trace/span IDs, but live in their own small
	// ring so the engine's per-solution event volume (tens of thousands
	// over a run, sharing wtrc's ring) cannot evict them before the
	// assertions at the end.
	wreg := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	wtrc := [2]*telemetry.Tracer{telemetry.NewTracer(8192), telemetry.NewTracer(8192)}
	wfault := [2]*telemetry.Tracer{telemetry.NewTracer(4096), telemetry.NewTracer(4096)}

	// One seeded fault schedule per worker: each worker's RPC sequence
	// is serial, so its fault draws are reproducible per seed.
	spec := func(seed uint64, trc *telemetry.Tracer) Spec {
		return Spec{
			Seed:      seed,
			Drop:      0.05,
			DropReply: 0.05,
			Duplicate: 0.05,
			DelayMin:  time.Millisecond,
			DelayMax:  8 * time.Millisecond,
			Tracer:    trc,
		}
	}
	chaosA := WrapTransport(cluster.NewLocalTransport(coord), spec(101, wfault[0]))
	chaosB := WrapTransport(cluster.NewLocalTransport(coord), spec(202, wfault[1]))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	reports := make([]*cluster.WorkerReport, 2)
	errs := make([]error, 2)
	for i, tr := range []*Transport{chaosA, chaosB} {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			w := newChaosWorker(t, []string{"chaos-a", "chaos-b"}[i], tr, wreg[i], wtrc[i])
			reports[i], errs[i] = w.Run(ctx)
		}(i, tr)
	}

	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator never finished under chaos: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d failed under chaos: %v", i, err)
		}
	}

	if !res.BestKnown {
		t.Fatal("no publication survived the chaos into the authoritative pool")
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("authoritative best %d disagrees with its solution (%d)", res.BestEnergy, got)
	}
	if res.Flips < flipBudget {
		t.Errorf("cluster flips = %d, want >= the %d budget", res.Flips, flipBudget)
	}
	// Reply loss makes workers resend Publishes with the same flip
	// counters; the idempotent replay cache plus the cumulative-counter
	// protocol must keep the total sane. Each worker's local count is
	// cumulative, so the cluster total can never exceed the sum of
	// worker-local flips.
	var local uint64
	for _, r := range reports {
		if r != nil && r.Result != nil {
			local += r.Result.Flips
		}
	}
	if res.Flips > local {
		t.Errorf("cluster counted %d flips but workers only performed %d — duplicate accounting", res.Flips, local)
	}

	// The schedule must actually have hurt. The per-kind split depends
	// on how many RPC rounds the timing allowed, so the assertion is
	// statistical: several faults landed in total, and the jitter hit
	// essentially every call.
	var total Counts
	for i, tr := range []*Transport{chaosA, chaosB} {
		c := tr.Counts()
		t.Logf("worker %d faults: %+v", i, c)
		total.Dropped += c.Dropped
		total.RepliesLost += c.RepliesLost
		total.Duplicated += c.Duplicated
		total.Delayed += c.Delayed
	}
	if faults := total.Dropped + total.RepliesLost + total.Duplicated; faults < 3 {
		t.Errorf("chaos schedule barely fired (%d faults): %+v", faults, total)
	}
	if total.Delayed == 0 {
		t.Errorf("no call was ever delayed: %+v", total)
	}

	// Observability of the chaos itself. Every injected fault must have
	// emitted a fault_inject trace event, at least some stamped with the
	// span of the RPC they harmed (the initial register carries no span,
	// so its faults are legitimately unattached); RPCs the chaos failed
	// must be visible as failed client spans; and the worker RPC
	// histograms must show the ≥1ms injected-delay floor — no lease or
	// publish observation can land under the 400µs bucket boundary.
	var faultEvents, faultStamped int
	for i := range wfault {
		for _, e := range wfault[i].Events() {
			if e.Kind != telemetry.EventFaultInject {
				t.Errorf("worker %d fault stream holds a foreign event: %+v", i, e)
				continue
			}
			faultEvents++
			if e.TraceID != "" {
				faultStamped++
			}
		}
	}
	if faultEvents == 0 {
		t.Error("no fault_inject trace event despite injected faults")
	}
	if faultStamped == 0 {
		t.Error("no fault_inject event was attached to the harmed RPC's span")
	}
	failedRPCSpans := 0
	for i := range wtrc {
		for _, s := range wtrc[i].Spans() {
			if strings.HasPrefix(s.Name, "rpc.") && s.Err != "" {
				failedRPCSpans++
			}
		}
	}
	if failedRPCSpans == 0 {
		t.Error("no failed RPC client span despite dropped requests")
	}
	if !telemetry.Enabled {
		return // abstelemetryoff build: no RPC latency histograms
	}
	for i := range wreg {
		snap := wreg[i].Snapshot()
		for _, rpc := range []string{"lease", "publish"} {
			h, ok := snap.Histogram("abs_worker_rpc_seconds", rpc)
			if !ok || h.Count == 0 {
				t.Errorf("worker %d has no %s RPC latency observations", i, rpc)
				continue
			}
			if fast := h.Counts[0] + h.Counts[1]; fast != 0 {
				t.Errorf("worker %d: %d %s RPCs under 400µs despite the 1ms injected-delay floor", i, fast, rpc)
			}
		}
	}
}

// swapTransport atomically redirects a worker between coordinator
// incarnations — the test's stand-in for "same address, new process".
type swapTransport struct {
	mu    sync.Mutex
	inner cluster.Transport
}

func (s *swapTransport) set(t cluster.Transport) {
	s.mu.Lock()
	s.inner = t
	s.mu.Unlock()
}

func (s *swapTransport) cur() cluster.Transport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *swapTransport) Register(ctx context.Context, req cluster.RegisterRequest) (*cluster.RegisterResponse, error) {
	return s.cur().Register(ctx, req)
}
func (s *swapTransport) Lease(ctx context.Context, req cluster.LeaseRequest) (*cluster.LeaseResponse, error) {
	return s.cur().Lease(ctx, req)
}
func (s *swapTransport) Publish(ctx context.Context, req cluster.PublishRequest) (*cluster.PublishResponse, error) {
	return s.cur().Publish(ctx, req)
}
func (s *swapTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (*cluster.HeartbeatResponse, error) {
	return s.cur().Heartbeat(ctx, req)
}

// downTransport is a coordinator that is simply gone: every call fails
// with a transient error, so workers go degraded and keep retrying.
type downTransport struct{}

var errDown = errors.New("coordinator process is down")

func (downTransport) Register(context.Context, cluster.RegisterRequest) (*cluster.RegisterResponse, error) {
	return nil, errDown
}
func (downTransport) Lease(context.Context, cluster.LeaseRequest) (*cluster.LeaseResponse, error) {
	return nil, errDown
}
func (downTransport) Publish(context.Context, cluster.PublishRequest) (*cluster.PublishResponse, error) {
	return nil, errDown
}
func (downTransport) Heartbeat(context.Context, cluster.HeartbeatRequest) (*cluster.HeartbeatResponse, error) {
	return nil, errDown
}

// TestCoordinatorKillRestoreNeverRegresses is the kill/restore
// acceptance run: a checkpointing coordinator is killed mid-run, a new
// incarnation restores from the store, the workers — who only ever see
// transport errors — re-register on their own, and the run finishes
// with a best no worse than the moment of death.
func TestCoordinatorKillRestoreNeverRegresses(t *testing.T) {
	p := randqubo.Generate(48, 17)
	mem := store.NewMem()
	cfg := cluster.CoordinatorConfig{
		Seed:        9,
		MaxFlips:    6_000_000,
		MaxDuration: 2 * time.Minute,
		LeaseTTL:    time.Second,
		WorkerTTL:   3 * time.Second,
		Store:       mem,
		Checkpoint:  25 * time.Millisecond,
		Registry:    telemetry.NewRegistry(),
		Tracer:      telemetry.NewTracer(8192),
	}
	c1, err := cluster.NewCoordinator(p, cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	sw := &swapTransport{inner: cluster.NewLocalTransport(c1)}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	reports := make([]*cluster.WorkerReport, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newChaosWorker(t, []string{"kr-a", "kr-b"}[i], sw, nil, nil)
			reports[i], errs[i] = w.Run(ctx)
		}(i)
	}

	// Let the run make real progress before the kill.
	deadline := time.Now().Add(time.Minute)
	for {
		st := c1.Status()
		if st.BestKnown && st.Flips >= 1_000_000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never made pre-kill progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill: cut the workers off FIRST (so nothing lands between the
	// final checkpoint and the death), snapshot, then close.
	sw.set(downTransport{})
	pre := c1.Status()
	if err := c1.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	// A real deployment dumps the flight recorder from the SIGTERM
	// handler before exiting; model that here so the death leaves a
	// postmortem artifact next to the last checkpoint.
	if err := c1.DumpFlight("sigterm: test kill"); err != nil {
		t.Fatalf("DumpFlight: %v", err)
	}
	c1.Close()

	// The dump must be readable from the store the dead incarnation
	// wrote, and must actually carry the incident context: recent spans
	// and events plus a metrics snapshot.
	dump, ok, err := telemetry.ReadFlightDump(mem)
	if err != nil || !ok {
		t.Fatalf("ReadFlightDump: ok=%v err=%v", ok, err)
	}
	if dump.Reason != "sigterm: test kill" {
		t.Errorf("flight dump reason = %q, want the kill reason", dump.Reason)
	}
	if len(dump.Spans) == 0 {
		t.Error("flight dump has no spans")
	}
	if telemetry.Enabled && len(dump.Events) == 0 {
		t.Error("flight dump has no events")
	}
	if dump.Metrics == nil {
		t.Error("flight dump has no metrics snapshot")
	}

	// Leave the coordinator dead long enough that every worker fails a
	// call, goes degraded, and has to re-register — the path under test.
	time.Sleep(300 * time.Millisecond)

	// Restore a second incarnation from the same store and "restart the
	// process" by swapping it in at the same address.
	c2, restored, err := cluster.RestoreCoordinator(p, cfg)
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	if !restored {
		t.Fatal("restore found no checkpoint")
	}
	defer c2.Close()
	rst := c2.Status()
	if !rst.BestKnown || rst.BestEnergy > pre.BestEnergy {
		t.Fatalf("restored best (%d, known %v) regressed from pre-kill %d", rst.BestEnergy, rst.BestKnown, pre.BestEnergy)
	}
	// An in-flight publish may land between the status read and the
	// checkpoint, so restored counters may be slightly AHEAD of the pre
	// snapshot — never behind.
	if rst.Flips < pre.Flips {
		t.Errorf("restored flips %d went backwards from pre-kill %d", rst.Flips, pre.Flips)
	}
	sw.set(cluster.NewLocalTransport(c2))

	// The run must now finish on the new incarnation, workers included.
	res, err := c2.Wait(ctx)
	if err != nil {
		t.Fatalf("restored coordinator never finished: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d failed across the restart: %v", i, err)
		}
	}

	if !res.BestKnown || res.BestEnergy > pre.BestEnergy {
		t.Errorf("final best (%d, known %v) regressed from pre-kill %d", res.BestEnergy, res.BestKnown, pre.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("final best %d disagrees with its solution (%d)", res.BestEnergy, got)
	}
	if res.Flips < 6_000_000 {
		t.Errorf("run finished with %d flips, want >= the 6000000 budget (restored counters must carry over)", res.Flips)
	}
	// Every worker must have lived through the death: the reconnect
	// counter proves the re-registration path ran rather than two fresh
	// workers having joined.
	for i, r := range reports {
		if r == nil {
			t.Fatalf("worker %d produced no report", i)
		}
		if r.Reconnects == 0 {
			t.Errorf("worker %d never reconnected — the kill window was invisible?", i)
		}
	}
}
