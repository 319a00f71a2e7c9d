package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"abs/internal/cluster"
	"abs/internal/randqubo"
	"abs/internal/telemetry"
)

// TestStitchedTraceTwoWorkersHTTPChaos is the tracing acceptance run:
// two workers talk to a coordinator over real HTTP with 5% chaos on the
// wire, and at the end the coordinator's tracer must hold ONE stitched
// trace — the cluster.run root, spans shipped back by both workers, and
// coordinator-side RPC spans whose parents are worker-side client spans
// (proof the traceparent header crossed the HTTP boundary in both
// directions). The injected faults must be visible as events stamped
// with span contexts of that same trace.
func TestStitchedTraceTwoWorkersHTTPChaos(t *testing.T) {
	const flipBudget = 3_000_000
	p := randqubo.Generate(48, 23)
	ctr := telemetry.NewTracer(8192)
	creg := telemetry.NewRegistry()
	coord, err := cluster.NewCoordinator(p, cluster.CoordinatorConfig{
		Seed:        11,
		MaxFlips:    flipBudget,
		MaxDuration: 2 * time.Minute,
		LeaseTTL:    time.Second,
		WorkerTTL:   3 * time.Second,
		Registry:    creg,
		Tracer:      ctr,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	srv := httptest.NewServer(cluster.NewHTTPHandler(coord))
	defer srv.Close()

	ids := []string{"ht-a", "ht-b"}
	wtrc := [2]*telemetry.Tracer{telemetry.NewTracer(8192), telemetry.NewTracer(8192)}
	wreg := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	// Dedicated per-worker fault streams: fault events reference their
	// victim's trace/span IDs but live apart from the engine's high-
	// volume event ring, so they cannot be evicted before the
	// assertions below.
	wfault := [2]*telemetry.Tracer{telemetry.NewTracer(4096), telemetry.NewTracer(4096)}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range ids {
		// 5% probabilistic chaos plus one scheduled partition window.
		// RPC cadence is wall-clock paced but scheduler-dependent (a
		// loaded single-core host exchanges ~1/s), so probabilistic
		// faults alone may never hit a spanned call; the partition
		// window deterministically fails every call inside it, and each
		// of those failures must surface as a span-stamped fault event.
		rt := WrapRoundTripper(nil, Spec{
			Seed:           uint64(301 + i*100),
			Drop:           0.05,
			DropReply:      0.05,
			Duplicate:      0.05,
			DelayMin:       time.Millisecond,
			DelayMax:       4 * time.Millisecond,
			PartitionAfter: 1500 * time.Millisecond,
			PartitionFor:   2500 * time.Millisecond,
			Tracer:         wfault[i],
		})
		tr := cluster.NewHTTPTransport(srv.URL, &http.Client{Timeout: 30 * time.Second, Transport: rt})
		wg.Add(1)
		go func(i int, tr cluster.Transport) {
			defer wg.Done()
			w := newChaosWorker(t, ids[i], tr, wreg[i], wtrc[i])
			_, errs[i] = w.Run(ctx)
		}(i, tr)
	}

	res, err := coord.Wait(ctx)
	if err != nil {
		t.Fatalf("coordinator never finished: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}
	if !res.BestKnown {
		t.Fatal("no publication survived into the pool")
	}
	// Close ends the cluster.run root span so it lands in the tracer.
	coord.Close()

	spans := ctr.Spans()
	var traceID string
	for _, s := range spans {
		if s.Name == "cluster.run" {
			traceID = s.TraceID
			break
		}
	}
	if traceID == "" {
		t.Fatalf("coordinator tracer holds no cluster.run root span (%d spans)", len(spans))
	}

	// Both workers' spans must have shipped back over Publish and joined
	// the coordinator's trace; collect their span IDs for the stitching
	// check below.
	workerSpanIDs := make(map[string]bool)
	perWorker := map[string]int{}
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Errorf("span %s/%s (node %s) belongs to foreign trace %s", s.Name, s.SpanID, s.Node, s.TraceID)
			continue
		}
		for _, id := range ids {
			if s.Node == id {
				perWorker[id]++
				workerSpanIDs[s.SpanID] = true
			}
		}
	}
	for _, id := range ids {
		if perWorker[id] == 0 {
			t.Errorf("no span from worker %s reached the coordinator's trace", id)
		}
	}

	// Cross-node stitching: at least one coordinator-side RPC span must
	// parent under a worker-side client span — that parent ID can only
	// have arrived via the traceparent header on the wire.
	stitched := 0
	for _, s := range spans {
		if s.Node == "coordinator" && workerSpanIDs[s.Parent] {
			stitched++
		}
	}
	if stitched == 0 {
		t.Error("no coordinator RPC span parents under a worker span: traceparent did not cross the HTTP boundary")
	}

	// The injected faults must be visible in the same trace: each
	// worker's chaos wrapper stamps fault_inject events with the span
	// context it read off the outgoing request's traceparent header.
	for i := range wfault {
		inTrace := 0
		for _, e := range wfault[i].Events() {
			if e.Kind == telemetry.EventFaultInject && e.TraceID == traceID {
				inTrace++
			}
		}
		if inTrace == 0 {
			t.Errorf("worker %d: no fault_inject event attached to the run's trace", i)
		}
	}

	// And the coordinator's RPC latency histogram saw the traffic.
	snap := creg.Snapshot()
	if h, ok := snap.Histogram("abs_cluster_rpc_seconds", "publish"); telemetry.Enabled && (!ok || h.Count == 0) {
		t.Error("coordinator recorded no publish RPC latency observations")
	}
}
