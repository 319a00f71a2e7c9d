package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
	"abs/internal/telemetry"
)

func testProblem(n int, seed uint64) *qubo.Problem {
	p := qubo.New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p.SetWeight(i, j, int16(r.Intn(201)-100))
		}
	}
	return p
}

func testConfig(devices int) Config {
	d := core.DefaultOptions()
	d.LocalSteps = 128
	return Config{
		Device:     gpusim.ScaledCPU(1),
		NumDevices: devices,
		Defaults:   d,
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestServiceSingleJob(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p := testProblem(48, 1)
	job, err := s.Submit(context.Background(), p, JobSpec{MaxDuration: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Result(); !errors.Is(err, ErrNotFinished) {
		t.Errorf("Result before completion: err = %v, want ErrNotFinished", err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("budget-bounded job reported cancelled")
	}
	if res.Flips == 0 {
		t.Error("no work recorded")
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("energy mismatch: %d != %d", got, res.BestEnergy)
	}
	st := job.Status()
	if st.State != StateDone {
		t.Errorf("state = %s, want done", st.State)
	}
	if st.Devices != 0 {
		t.Errorf("settled job still holds %d devices", st.Devices)
	}
	if got, ok := s.Job(job.ID()); !ok || got != job {
		t.Error("settled job not retained")
	}
}

func TestServiceFairShareRebalance(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	long := JobSpec{MaxDuration: 30 * time.Second} // cancelled explicitly below
	j1, err := s.Submit(context.Background(), testProblem(48, 2), long)
	if err != nil {
		t.Fatal(err)
	}
	// Alone on the fleet, j1 gets both devices.
	waitFor(t, "j1 to hold 2 devices", func() bool { return j1.Status().Devices == 2 })

	// A second arrival forces a reclaim: shares become 1/1.
	j2, err := s.Submit(context.Background(), testProblem(48, 3), long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "1/1 split", func() bool {
		return j1.Status().Devices == 1 && j2.Status().Devices == 1
	})

	// j2 finishing hands its device back to j1.
	j2.Cancel()
	if res, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	} else if !res.Cancelled {
		t.Error("cancelled job's result lacks Cancelled")
	}
	waitFor(t, "j1 to grow back to 2 devices", func() bool { return j1.Status().Devices == 2 })

	j1.Cancel()
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceBackpressureAndPromotion(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueCap = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	long := JobSpec{MaxDuration: 30 * time.Second}
	j1, err := s.Submit(context.Background(), testProblem(48, 4), long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "j1 running", func() bool { return j1.Status().State == StateRunning })

	j2, err := s.Submit(context.Background(), testProblem(48, 5), long)
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Status().State; st != StateQueued {
		t.Fatalf("j2 state = %s, want queued", st)
	}

	if _, err := s.Submit(context.Background(), testProblem(48, 6), long); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	// The running job's departure promotes the queued one.
	j1.Cancel()
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "j2 promoted", func() bool { return j2.Status().State == StateRunning })
	j2.Cancel()
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceQueuedCancel(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueCap = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	long := JobSpec{MaxDuration: 30 * time.Second}
	j1, err := s.Submit(context.Background(), testProblem(48, 7), long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(context.Background(), testProblem(48, 8), long)
	if err != nil {
		t.Fatal(err)
	}
	j2.Cancel()
	res, err := j2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("queued cancel: result not marked cancelled")
	}
	if res.Flips != 0 {
		t.Errorf("queued job did %d flips", res.Flips)
	}
	if st := j2.Status(); st.State != StateCancelled || !st.Started.IsZero() {
		t.Errorf("queued cancel: state %s, started %v", st.State, st.Started)
	}
	j1.Cancel()
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceSubmitContextCancelsJob(t *testing.T) {
	s, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Submit(ctx, testProblem(48, 9), JobSpec{MaxDuration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.Status().State == StateRunning })
	cancel()
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("submit-context cancellation did not cancel the job")
	}
}

func TestServiceMaxDevicesCap(t *testing.T) {
	s, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j, err := s.Submit(context.Background(), testProblem(48, 10),
		JobSpec{MaxDuration: 30 * time.Second, MaxDevices: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capped job to hold its 1 device", func() bool { return j.Status().Devices == 1 })
	// Give the scheduler no excuse: the cap must hold across rebalances.
	time.Sleep(50 * time.Millisecond)
	if got := j.Status().Devices; got != 1 {
		t.Fatalf("capped job holds %d devices, want 1", got)
	}
	j.Cancel()
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRetentionEviction(t *testing.T) {
	cfg := testConfig(1)
	cfg.RetainResults = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(context.Background(), testProblem(48, 20+uint64(i)),
			JobSpec{MaxFlips: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	waitFor(t, "eviction to settle", func() bool {
		_, ok := s.Job(ids[1])
		return !ok
	})
	for _, id := range ids[:2] {
		if _, ok := s.Job(id); ok {
			t.Errorf("job %s survived a RetainResults=1 window", id)
		}
	}
	if _, ok := s.Job(ids[2]); !ok {
		t.Error("newest settled job was evicted")
	}
}

func TestServiceCloseCancelsEverything(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueCap = 2
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	tr := telemetry.NewTracer(64)
	cfg.Tracer = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	long := JobSpec{MaxDuration: 30 * time.Second}
	j1, err := s.Submit(context.Background(), testProblem(48, 30), long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(context.Background(), testProblem(48, 31), long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "j1 running", func() bool { return j1.Status().State == StateRunning })

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{j1, j2} {
		st := j.Status()
		if st.State != StateCancelled {
			t.Errorf("%s state after Close = %s, want cancelled", j.ID(), st.State)
		}
	}
	if _, err := s.Submit(context.Background(), testProblem(48, 32), long); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if telemetry.Enabled {
		var submits, settles int
		for _, e := range tr.Events() {
			switch e.Kind {
			case telemetry.EventJobSubmit:
				submits++
			case telemetry.EventJobSettle:
				settles++
			}
		}
		if submits != 2 || settles != 2 {
			t.Errorf("trace: %d submits, %d settles, want 2/2", submits, settles)
		}
	}
}

// TestDiversityGaugeReadAtScrape pins the serve-plane DABS gauge: a
// scrape sets abs_pool_distance_buckets_occupied from the running
// jobs' engines, and the gauge reads 0 once no job runs. Concurrent
// scrapers race the scheduler and the pump on purpose (run with -race).
func TestDiversityGaugeReadAtScrape(t *testing.T) {
	if !telemetry.Enabled {
		t.Skip("telemetry compiled out")
	}
	cfg := testConfig(1)
	cfg.Defaults.ProgressEvery = 10 * time.Millisecond
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buckets := func() float64 {
		v, _ := reg.Snapshot().Gauge("abs_pool_distance_buckets_occupied", "")
		return v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					buckets()
				}
			}
		}()
	}
	j, err := s.Submit(context.Background(), testProblem(48, 50),
		JobSpec{MaxDuration: 30 * time.Second, Diversity: "radius=2"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "occupied buckets while the job runs", func() bool { return buckets() >= 1 })
	j.Cancel()
	waitFor(t, "job cancelled", func() bool { return j.Status().State == StateCancelled })
	close(stop)
	wg.Wait()
	if got := buckets(); got != 0 {
		t.Errorf("abs_pool_distance_buckets_occupied = %v with no job running, want 0", got)
	}
}

func TestServiceRejectsInvalidJobs(t *testing.T) {
	cfg := testConfig(1)
	cfg.Defaults.MaxDuration = 0 // no default stop condition
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Submit(context.Background(), testProblem(48, 40), JobSpec{}); err == nil {
		t.Error("submit with no stop condition accepted")
	}
	if _, err := s.Submit(context.Background(), nil, JobSpec{MaxFlips: 10}); err == nil {
		t.Error("nil problem accepted")
	}
	if _, err := s.Submit(context.Background(), testProblem(48, 41),
		JobSpec{MaxFlips: 10, MaxDevices: -1}); err == nil {
		t.Error("negative MaxDevices accepted")
	}
}
