package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/diversity"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/rng"
	"abs/internal/telemetry"
)

func testProblem(n int, seed uint64) *qubo.Problem {
	return randqubo.Generate(n, seed)
}

// newCoord builds a coordinator with a fallback stop condition and
// arranges its shutdown.
func newCoord(t *testing.T, p *qubo.Problem, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.TargetEnergy == nil && cfg.MaxDuration == 0 && cfg.MaxFlips == 0 {
		cfg.MaxDuration = time.Minute
	}
	c, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustRegister(t *testing.T, c *Coordinator, id string) *RegisterResponse {
	t.Helper()
	resp, err := c.Register(context.Background(), RegisterRequest{WorkerID: id, Devices: 1})
	if err != nil {
		t.Fatalf("Register(%q): %v", id, err)
	}
	return resp
}

func mustLease(t *testing.T, c *Coordinator, id string, max int) *LeaseResponse {
	t.Helper()
	resp, err := c.Lease(context.Background(), LeaseRequest{WorkerID: id, Max: max})
	if err != nil {
		t.Fatalf("Lease(%q): %v", id, err)
	}
	return resp
}

func targetSet(resp *LeaseResponse) map[string]bool {
	out := make(map[string]bool, len(resp.Targets))
	for _, tg := range resp.Targets {
		out[tg.X] = true
	}
	return out
}

func TestNewCoordinatorRequiresStopCondition(t *testing.T) {
	if _, err := NewCoordinator(testProblem(16, 1), CoordinatorConfig{}); err == nil {
		t.Fatal("coordinator accepted a config with no stop condition")
	}
}

func TestNewCoordinatorValidatesTTLs(t *testing.T) {
	_, err := NewCoordinator(testProblem(16, 1), CoordinatorConfig{
		MaxDuration: time.Minute,
		LeaseTTL:    time.Second,
		WorkerTTL:   100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("coordinator accepted WorkerTTL < LeaseTTL")
	}
}

func TestRegisterGrantsProblemAndDistinctSeeds(t *testing.T) {
	p := testProblem(48, 2)
	c := newCoord(t, p, CoordinatorConfig{Seed: 7})

	a := mustRegister(t, c, "")
	b := mustRegister(t, c, "")
	if a.WorkerID == "" || a.WorkerID == b.WorkerID {
		t.Fatalf("coordinator-assigned IDs must be distinct and non-empty: %q vs %q", a.WorkerID, b.WorkerID)
	}
	if a.Seed == b.Seed {
		t.Errorf("two workers dealt the same host seed %d — identical trajectories", a.Seed)
	}
	got, err := qubo.ReadText(strings.NewReader(a.Problem))
	if err != nil {
		t.Fatalf("registration grant carried an unparseable problem: %v", err)
	}
	if got.N() != p.N() {
		t.Errorf("granted problem has n=%d, want %d", got.N(), p.N())
	}
	if a.HeartbeatMillis <= 0 || a.HeartbeatMillis >= a.LeaseTTLMillis {
		t.Errorf("heartbeat interval %dms must be positive and under the lease TTL %dms",
			a.HeartbeatMillis, a.LeaseTTLMillis)
	}
	if a.LeaseBatch <= 0 {
		t.Errorf("LeaseBatch %d must be positive", a.LeaseBatch)
	}
}

func TestRegisterIdempotentRedistributesLeases(t *testing.T) {
	c := newCoord(t, testProblem(48, 3), CoordinatorConfig{LeaseBatch: 8})

	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 4))
	if len(held) != 4 {
		t.Fatalf("leased %d targets, want 4", len(held))
	}

	// The worker restarts: same identity, fresh process. Its stale
	// leases must go back into the redistribution queue...
	mustRegister(t, c, "a")
	mustRegister(t, c, "b")

	// ...and be the first thing the next lease hands out.
	got := targetSet(mustLease(t, c, "b", 4))
	for x := range held {
		if !got[x] {
			t.Errorf("redistributed lease lost target %q", x)
		}
	}
}

func TestRPCsRejectUnknownWorker(t *testing.T) {
	c := newCoord(t, testProblem(32, 4), CoordinatorConfig{})
	ctx := context.Background()
	if _, err := c.Lease(ctx, LeaseRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Lease(ghost) = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Publish(ghost) = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Heartbeat(ctx, HeartbeatRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Heartbeat(ghost) = %v, want ErrUnknownWorker", err)
	}
}

func TestPublishVerdicts(t *testing.T) {
	p := testProblem(48, 5)
	c := newCoord(t, p, CoordinatorConfig{})
	mustRegister(t, c, "a")
	ctx := context.Background()

	x := bitvec.Random(p.N(), rng.New(11))
	e := p.Energy(x)
	resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Results: []PublishedSolution{
		{X: x.String(), Energy: e},          // honest: admitted
		{X: x.String(), Energy: e},          // republished: dedup window
		{X: x.String(), Energy: e - 999},    // lying energy: quarantined
		{X: bitvec.New(p.N() / 2).String()}, // wrong width: quarantined
		{X: "not a bit string", Energy: -1}, // corrupt: quarantined
	}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if resp.Accepted != 1 || resp.Duplicate != 1 || resp.Quarantined != 3 {
		t.Errorf("verdicts = accepted %d / duplicate %d / rejected %d / quarantined %d, want 1/1/0/3",
			resp.Accepted, resp.Duplicate, resp.Rejected, resp.Quarantined)
	}
	if !resp.BestKnown || resp.BestEnergy != e {
		t.Errorf("best after publish = (%d, %v), want (%d, true)", resp.BestEnergy, resp.BestKnown, e)
	}
	if q := c.Status().Quarantined; q != 3 {
		t.Errorf("Status().Quarantined = %d, want 3", q)
	}
}

func TestPublishPoolRejectWithoutDedup(t *testing.T) {
	p := testProblem(48, 6)
	c := newCoord(t, p, CoordinatorConfig{DedupWindow: -1})
	mustRegister(t, c, "a")
	ctx := context.Background()

	x := bitvec.Random(p.N(), rng.New(12))
	e := p.Energy(x)
	pub := func() *PublishResponse {
		resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a",
			Results: []PublishedSolution{{X: x.String(), Energy: e}}})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		return resp
	}
	if resp := pub(); resp.Accepted != 1 {
		t.Fatalf("first publish accepted %d, want 1", resp.Accepted)
	}
	// With the dedup window disabled the pool's own distinctness guard
	// must catch the echo.
	if resp := pub(); resp.Rejected != 1 || resp.Duplicate != 0 {
		t.Errorf("echo publish = rejected %d / duplicate %d, want 1/0", resp.Rejected, resp.Duplicate)
	}
}

func TestTrustPublicationsSkipsEnergyRecheck(t *testing.T) {
	p := testProblem(32, 7)
	c := newCoord(t, p, CoordinatorConfig{TrustPublications: true})
	mustRegister(t, c, "a")

	x := bitvec.Random(p.N(), rng.New(13))
	lie := p.Energy(x) - 12345
	resp, err := c.Publish(context.Background(), PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: lie}}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if resp.Accepted != 1 || resp.Quarantined != 0 {
		t.Errorf("trusted publish = accepted %d / quarantined %d, want 1/0", resp.Accepted, resp.Quarantined)
	}
}

func TestTargetEnergyFinishesRun(t *testing.T) {
	p := testProblem(32, 8)
	x := bitvec.Random(p.N(), rng.New(14))
	e := p.Energy(x)
	c := newCoord(t, p, CoordinatorConfig{TargetEnergy: &e})
	mustRegister(t, c, "a")

	resp, err := c.Publish(context.Background(), PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: e}}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if !resp.Done {
		t.Error("publishing the target energy did not mark the run done")
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done channel not closed after target reached")
	}
	st := c.Status()
	if !st.ReachedTarget || !st.BestKnown || st.BestEnergy != e {
		t.Errorf("Status() = reached %v best (%d, %v), want reached with best %d",
			st.ReachedTarget, st.BestEnergy, st.BestKnown, e)
	}
}

func TestMaxFlipsFinishesAndPublishStillAdmits(t *testing.T) {
	p := testProblem(32, 9)
	c := newCoord(t, p, CoordinatorConfig{MaxFlips: 100})
	mustRegister(t, c, "a")
	ctx := context.Background()

	resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: 150})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if !resp.Done {
		t.Fatal("crossing MaxFlips did not mark the run done")
	}

	// A worker's final flush after Done must still land: best-so-far
	// must never be lost to the shutdown race.
	x := bitvec.Random(p.N(), rng.New(15))
	resp, err = c.Publish(ctx, PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: p.Energy(x)}}})
	if err != nil {
		t.Fatalf("post-done Publish: %v", err)
	}
	if resp.Accepted != 1 {
		t.Errorf("post-done publish accepted %d, want 1", resp.Accepted)
	}
}

func TestFlipAccountingSurvivesWorkerRestart(t *testing.T) {
	c := newCoord(t, testProblem(32, 10), CoordinatorConfig{})
	mustRegister(t, c, "a")
	ctx := context.Background()

	for _, flips := range []uint64{100, 40, 70} {
		if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: flips}); err != nil {
			t.Fatalf("Publish(flips=%d): %v", flips, err)
		}
	}
	// 100, then a restart (counter back to 40: re-baseline, no delta),
	// then 70 (+30). Cluster total must never go backwards.
	if got := c.Status().Flips; got != 130 {
		t.Errorf("cluster flips = %d, want 130", got)
	}
}

func TestJanitorExpiresLeasesForRedistribution(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(48, 11), CoordinatorConfig{
		LeaseTTL:  40 * time.Millisecond,
		WorkerTTL: 10 * time.Second, // keep the worker registered; only its leases lapse
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 3))

	// "a" goes silent. Its leases must lapse and flow, via the
	// redistribution queue, to the next worker that asks.
	mustRegister(t, c, "b")
	got := make(map[string]bool)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for x := range targetSet(mustLease(t, c, "b", 3)) {
			got[x] = true
		}
		recovered := 0
		for x := range held {
			if got[x] {
				recovered++
			}
		}
		if recovered == len(held) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for x := range held {
		if !got[x] {
			t.Errorf("expired lease target %q never redistributed", x)
		}
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_leases_expired_total", "").Value(); n < 3 {
			t.Errorf("abs_cluster_leases_expired_total = %d, want >= 3", n)
		}
	}
}

func TestJanitorRetiresSilentWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(32, 12), CoordinatorConfig{
		LeaseTTL:  30 * time.Millisecond,
		WorkerTTL: 60 * time.Millisecond,
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	mustLease(t, c, "a", 2)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Status().Workers > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := c.Status().Workers; n != 0 {
		t.Fatalf("silent worker still registered after 5s (workers=%d)", n)
	}
	if _, err := c.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "a"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("retired worker heartbeat = %v, want ErrUnknownWorker", err)
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_workers_retired_total", "").Value(); n != 1 {
			t.Errorf("abs_cluster_workers_retired_total = %d, want 1", n)
		}
	}
}

func TestHeartbeatKeepsLeasesAlive(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(48, 13), CoordinatorConfig{
		LeaseTTL:  80 * time.Millisecond,
		WorkerTTL: 10 * time.Second,
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 2))

	// Heartbeat well inside the TTL for several TTLs' worth of time.
	for i := 0; i < 16; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := c.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "a"}); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
	}
	// Nothing of "a"'s may have leaked to another worker.
	mustRegister(t, c, "b")
	for x := range targetSet(mustLease(t, c, "b", 2)) {
		if held[x] {
			t.Errorf("heartbeated lease target %q was redistributed", x)
		}
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_leases_expired_total", "").Value(); n != 0 {
			t.Errorf("abs_cluster_leases_expired_total = %d, want 0", n)
		}
	}
}

func TestCloseRejectsRPCs(t *testing.T) {
	c := newCoord(t, testProblem(32, 14), CoordinatorConfig{})
	mustRegister(t, c, "a")
	c.Close()
	ctx := context.Background()
	if _, err := c.Register(ctx, RegisterRequest{}); !errors.Is(err, ErrDone) {
		t.Errorf("Register after Close = %v, want ErrDone", err)
	}
	if _, err := c.Lease(ctx, LeaseRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Lease after Close = %v, want ErrDone", err)
	}
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Publish after Close = %v, want ErrDone", err)
	}
	if _, err := c.Heartbeat(ctx, HeartbeatRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Heartbeat after Close = %v, want ErrDone", err)
	}
	c.Close() // idempotent
}

func TestDedupSetWindowEvicts(t *testing.T) {
	d := newDedupSet(2)
	for _, k := range []uint64{1, 2, 3} {
		if d.has(k) {
			t.Errorf("key %d present before add", k)
		}
		d.add(k)
	}
	if d.has(1) {
		t.Error("oldest key survived eviction from a full window")
	}
	if !d.has(2) || !d.has(3) {
		t.Error("recent keys missing from the window")
	}

	var nilSet *dedupSet
	if nilSet.has(1) {
		t.Error("nil dedupSet matched a key")
	}
	nilSet.add(1) // must not panic
	if nilSet.seen(bitvec.New(8), 0) {
		t.Error("nil dedupSet reported a pair as seen")
	}
	if newDedupSet(0) != nil || newDedupSet(-1) != nil {
		t.Error("non-positive capacity must disable the window")
	}
}

// grantCases is the one table behind the registration-grant tests, a
// row per core.Tuning field: what the coordinator grants and its wire
// form, a different value a worker sets itself, the engine default when
// neither sets it (on the dense testProblem), a corrupt wire form, a
// bad Go value, and how to read the field off a built engine.
var grantCases = map[string]struct {
	grant, local, dflt core.Tuning
	wire, corrupt      string
	bad                core.Tuning
	read               func(*core.Engine) core.Tuning
}{
	"storage": {
		grant: core.Tuning{Storage: core.StorageSparse},
		local: core.Tuning{Storage: core.StorageDense},
		dflt:  core.Tuning{Storage: core.StorageDense},
		wire:  "storage=sparse", corrupt: "storage=columnar",
		bad:  core.Tuning{Storage: core.Storage(9)},
		read: func(e *core.Engine) core.Tuning { return core.Tuning{Storage: e.Storage()} },
	},
	"backend": {
		grant: core.Tuning{Backend: core.BackendTabu},
		local: core.Tuning{Backend: core.BackendSB},
		dflt:  core.Tuning{Backend: core.BackendStraight},
		wire:  "backend=tabu", corrupt: "backend=columnar",
		bad:  core.Tuning{Backend: "columnar"},
		read: func(e *core.Engine) core.Tuning { return core.Tuning{Backend: e.Backend()} },
	},
	"diversity": {
		grant: core.Tuning{Diversity: diversity.Spec{Radius: 4, Buckets: 6, MinPerBucket: 1}},
		local: core.Tuning{Diversity: diversity.DefaultSpec()}, // radius=0: the local opt-out
		dflt:  core.Tuning{Diversity: diversity.DefaultSpec()},
		wire:  "radius=4,buckets=6,min=1", corrupt: "radius=banana",
		bad:  core.Tuning{Diversity: diversity.Spec{Radius: -1}},
		read: func(e *core.Engine) core.Tuning { return core.Tuning{Diversity: e.Options().Tuning.Diversity} },
	},
}

// grantsExcept merges the given field of every row except key.
func grantsExcept(key string, field func(row string) core.Tuning) core.Tuning {
	var out core.Tuning
	for k := range grantCases {
		if k != key {
			out = field(k).Over(out)
		}
	}
	return out
}

// buildWorkerEngine builds a worker's engine from reg under a local
// Tuning, finishing it when the test ends.
func buildWorkerEngine(t *testing.T, c *Coordinator, p *qubo.Problem, reg *RegisterResponse, id string, local core.Tuning) (*core.Engine, error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Transport: NewLocalTransport(c), WorkerID: id, Tuning: local})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.buildEngine(p, reg); err != nil {
		return nil, err
	}
	t.Cleanup(func() { w.engine.Finish(true) })
	return w.engine, nil
}

// checkGrant: the coordinator grants one field; a worker that leaves
// it unset inherits it (also when it sets every other field), one
// that sets it keeps its own, and a corrupt grant is a permanent
// registration error, not a silent default.
func checkGrant(t *testing.T, key string) {
	tc := grantCases[key]
	p := testProblem(48, 4) // dense random instance: auto would pick dense
	c := newCoord(t, p, CoordinatorConfig{Tuning: tc.grant})
	reg := mustRegister(t, c, "w-grant")
	if reg.Tuning != tc.wire {
		t.Fatalf("registration grant = %q, want %q", reg.Tuning, tc.wire)
	}
	others := grantsExcept(key, func(k string) core.Tuning { return grantCases[k].local })
	for _, local := range []core.Tuning{{}, others} {
		eng, err := buildWorkerEngine(t, c, p, reg, "w-inherit", local)
		if err != nil {
			t.Fatalf("buildEngine under %q: %v", local, err)
		}
		if got := tc.read(eng); got != tc.grant {
			t.Errorf("worker with %q resolved %q, want %q from the grant", local, got, tc.grant)
		}
	}
	eng, err := buildWorkerEngine(t, c, p, reg, "w-local", tc.local)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if got := tc.read(eng); got != tc.local {
		t.Errorf("locally set worker resolved %q, want its own %q", got, tc.local)
	}
	bad := *reg
	bad.Tuning = tc.corrupt
	if _, err := buildWorkerEngine(t, c, p, &bad, "w-bad", core.Tuning{}); err == nil {
		t.Errorf("buildEngine accepted the corrupt grant %q", tc.corrupt)
	} else if !Permanent(err) {
		t.Errorf("corrupt grant error should be permanent, got %v", err)
	}
}

// checkGrantOmitted: a coordinator that sets nothing grants nothing,
// one that sets every other field leaves this one out of the wire
// form, and a worker that sets nothing then runs the engine default.
func checkGrantOmitted(t *testing.T, key string) {
	tc := grantCases[key]
	p := testProblem(32, 5)
	if reg := mustRegister(t, newCoord(t, p, CoordinatorConfig{}), "w"); reg.Tuning != "" {
		t.Errorf("default coordinator granted %q, want empty (decide locally)", reg.Tuning)
	}
	others := grantsExcept(key, func(k string) core.Tuning { return grantCases[k].grant })
	c := newCoord(t, p, CoordinatorConfig{Tuning: others})
	reg := mustRegister(t, c, "w")
	if got, err := core.ParseTuning(reg.Tuning); err != nil || got != others {
		t.Errorf("grant %q (%v), want exactly %q", reg.Tuning, err, others)
	}
	eng, err := buildWorkerEngine(t, c, p, reg, "w", core.Tuning{})
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if got := tc.read(eng); got != tc.dflt {
		t.Errorf("worker resolved %q with nothing set, want the default %q", got, tc.dflt)
	}
}

func TestStorageGrantPropagatesToWorkerEngine(t *testing.T) { checkGrant(t, "storage") }
func TestStorageGrantOmittedOnAuto(t *testing.T)            { checkGrantOmitted(t, "storage") }
func TestBackendGrantPropagatesToWorkerEngine(t *testing.T) { checkGrant(t, "backend") }
func TestBackendGrantOmittedOnAuto(t *testing.T)            { checkGrantOmitted(t, "backend") }
func TestDiversityGrantOmittedByDefault(t *testing.T)       { checkGrantOmitted(t, "diversity") }

func TestDiversityGrantPropagatesToWorkerEngine(t *testing.T) {
	checkGrant(t, "diversity")
	// The coordinator's own authoritative pool runs the granted
	// admission policy too.
	c := newCoord(t, testProblem(16, 8), CoordinatorConfig{Tuning: grantCases["diversity"].grant})
	if c.cfg.GA.Policy == nil {
		t.Error("coordinator pool has no admission policy despite radius > 0")
	}
}

// TestDiversityGrantRejectedAtCoordinator: NewCoordinator and NewWorker
// reject a bad value of every Tuning field, so a bad setting fails at
// construction rather than at registration.
func TestDiversityGrantRejectedAtCoordinator(t *testing.T) {
	for key, tc := range grantCases {
		if _, err := NewCoordinator(testProblem(16, 9), CoordinatorConfig{MaxDuration: time.Minute, Tuning: tc.bad}); err == nil {
			t.Errorf("NewCoordinator accepted a bad %s %+v", key, tc.bad)
		}
		if _, err := NewWorker(WorkerConfig{Transport: NewLocalTransport(nil), Tuning: tc.bad}); err == nil {
			t.Errorf("NewWorker accepted a bad %s %+v", key, tc.bad)
		}
	}
}
