package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"abs/internal/bitvec"
	"abs/internal/cluster"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/serve"
)

// op is one operation a workload's caller waits for: a fixed-work solve,
// a serve job, or a whole cluster run.
type op struct {
	wall      time.Duration
	evaluated float64
	ratio     float64 // best energy ÷ reference energy
	err       error
}

// workload is one benchmark workload: its set-up, and the service layer
// its traced run measures beyond its own operations. Serve jobs and
// cluster runs swing with host load too much to be end-to-end workloads
// of their own on a small host (their run-to-run spread reached the
// 25% bound), so the solve workloads' traced runs carry them.
type workload struct {
	setup func(sc scale, instanceSeed uint64) (*solveEnv, error)
	rung  func(cfg runConfig, in instance, tr *tracing, d time.Duration) error
}

var workloads = map[string]workload{
	"dense-solve":  {setupDenseSolve, serveRung},
	"sparse-solve": {setupSparseSolve, clusterRung},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// solveEnv is dense-solve and sparse-solve: back-to-back fixed-work
// solves of one instance with default options and distinct seeds.
// dense-solve puts the dense flip kernel on the critical path: its 2 MiB
// matrix fills a core's 2 MiB L2, so rows also stream from the shared
// L3. At n=2048 they came mostly from L3, and host load swung the
// run-to-run spread past the 25% bound. sparse-solve's O(degree) flips
// leave the host pump, ingest gate, GA and round overhead on the
// critical path instead and never call the dense kernel.
type solveEnv struct {
	in  instance
	ref int64
}

func setupDenseSolve(sc scale, seed uint64) (*solveEnv, error) {
	return newSolveEnv(instance{denseInstance(sc.denseN, seed), sc.denseFlips})
}

func setupSparseSolve(sc scale, seed uint64) (*solveEnv, error) {
	p, err := sparseInstance(sc.sparseN, sc.sparseM, seed)
	if err != nil {
		return nil, err
	}
	return newSolveEnv(instance{p, sc.sparseFlips})
}

// newSolveEnv does no warm-up solve: the timings are medians over
// operations, so the first operation's cold start does not move them,
// and a warm-up solve's length is set by when a Pump call notices the
// flip budget is spent, which made set-up time jump between two values.
func newSolveEnv(in instance) (*solveEnv, error) {
	ref, err := referenceEnergy(in.p.Name())
	if err != nil {
		return nil, err
	}
	return &solveEnv{in: in, ref: ref}, nil
}

func (e *solveEnv) run(ctx context.Context, seed uint64, deadline time.Time, minOps int, tr *tracing) []op {
	var ops []op
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		root := tr.start("bench.solve", 0)
		start := time.Now()
		res, err := solveOnce(ctx, e.in.p, opSeed(seed, i), e.in.flips, tr, root)
		o := op{wall: time.Since(start), err: err}
		tr.end(root)
		if err == nil {
			o.evaluated = float64(res.Evaluated)
			o.ratio = ratio(res.BestEnergy, e.ref)
			o.err = checkTimed(tr, e.in.p, res.Best, res.BestEnergy)
		}
		ops = append(ops, o)
	}
	return ops
}

// solveOnce runs one fixed-work solve with default options: through
// core.SolveContext when untraced, call by call when traced.
func solveOnce(ctx context.Context, p *qubo.Problem, seed, flips uint64, tr *tracing, parent int) (*core.Result, error) {
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.MaxFlips = flips
	if tr == nil {
		return core.SolveContext(ctx, p, opt)
	}
	return tracedSolve(ctx, p, opt, tr, parent)
}

// tracedSolve is core.SolveContext's protocol — NewEngine, NewFleet,
// Attach, then Pump / ShouldStop / sleep until a stop condition fires,
// then Finish — driven call by call with every call timed, so a traced
// run shows where a solve's wall time goes.
func tracedSolve(ctx context.Context, p *qubo.Problem, opt core.Options, tr *tracing, parent int) (*core.Result, error) {
	start := time.Now()
	sp := tr.start("core.new_engine", parent)
	eng, err := core.NewEngine(p, opt)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.sample("core.new_engine_ms", msSince(start))
	sp = tr.start("gpusim.new_fleet", parent)
	fleet, err := gpusim.NewFleet(eng.Options().Device, eng.MaxDevices())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sp = tr.start("core.attach", parent)
	for i := 0; i < fleet.Size(); i++ {
		if err := eng.Attach(fleet.Device(i)); err != nil {
			tr.end(sp)
			eng.Finish(false)
			return nil, err
		}
	}
	tr.end(sp)
	tr.sample("core.attach_ms", msSince(t))

	poll := eng.Options().PollInterval
	loopStart := time.Now()
	var busy time.Duration
	cancelled := false
	for {
		t := time.Now()
		sp := tr.start("core.pump", parent)
		eng.Pump(t)
		tr.end(sp)
		d := time.Since(t)
		busy += d
		tr.sample("core.pump_ms", ms(d))
		sp = tr.start("core.should_stop", parent)
		stop := eng.ShouldStop(time.Now())
		tr.end(sp)
		if stop {
			break
		}
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		sp = tr.start("core.sleep", parent)
		time.Sleep(poll)
		tr.end(sp)
	}
	tr.sample("core.pump_busy_frac", frac(busy.Seconds(), time.Since(loopStart).Seconds()))

	t = time.Now()
	sp = tr.start("core.finish", parent)
	res := eng.Finish(cancelled)
	tr.end(sp)
	tr.sample("core.finish_ms", msSince(t))
	recordCore(tr, res, time.Since(start))
	return res, nil
}

// recordCore takes the engine's own counters from a finished solve.
func recordCore(tr *tracing, res *core.Result, wall time.Duration) {
	var published float64
	devFlips := map[int]float64{}
	unitFlips := make([]float64, 0, len(res.BlockStats))
	for _, b := range res.BlockStats {
		published += float64(b.Published)
		devFlips[b.Device] += float64(b.Flips)
		unitFlips = append(unitFlips, float64(b.Flips))
	}
	devs := make([]float64, 0, len(devFlips))
	for _, f := range devFlips {
		devs = append(devs, f)
	}
	tr.sample("core.published", published)
	tr.sample("core.device_share", minShare(devs))
	tr.sample("core.unit_share", minShare(unitFlips))
	tr.count("core.published", published)
	tr.count("core.inserted", float64(res.Inserted))
	tr.count("core.dropped", float64(res.Dropped))
	tr.count("core.quarantined", float64(res.Quarantined))
	tr.count("core.respawns", float64(res.Recovered))
	tr.count("core.flips", float64(res.Flips))
	tr.count("core.evaluated", float64(res.Evaluated))
	tr.count("core.wall_s", wall.Seconds())
}

// checkTimed is checkSolution under a "qubo.energy" span: the check is
// the same Problem.Energy call the ingest gate makes.
func checkTimed(tr *tracing, p *qubo.Problem, x *bitvec.Vector, claimed int64) error {
	sp := tr.start("qubo.energy", 0)
	defer tr.end(sp)
	return checkSolution(p, x, claimed)
}

// serveEnv is the serve job mix: an in-process serve.Service with a
// 2-device fleet behind serve.NewHTTPHandler on loopback. Two
// closed-loop clients each POST a job with an inline qubo-text problem,
// follow its event stream until it settles, then POST the next; jobs
// alternate a Chimera C6 and a dense n=512 instance with fixed
// max_flips. Many short jobs make per-job set-up — parsing, NewEngine,
// attach/detach rebalancing, settling — the main cost.
type serveEnv struct {
	kinds  [2]serveKind
	svc    *serve.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

type serveKind struct {
	in  instance
	ref int64
	// body is the POST body up to the seed, which each job appends.
	body []byte
}

// serveClients is the number of closed-loop clients: one per CPU of the
// 2-core host the benchmark was sized on.
const serveClients = 2

func setupServeMix(sc scale, seed uint64) (*serveEnv, error) {
	cp, err := chimeraInstance(sc.chimeraM, seed)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{client: newLoopbackClient()}
	for i, in := range []instance{{cp, sc.serveChimeraFlips}, {denseInstance(sc.serveDenseN, seed), sc.serveDenseFlips}} {
		ref, err := referenceEnergy(in.p.Name())
		if err != nil {
			return nil, err
		}
		var text strings.Builder
		if err := qubo.WriteText(&text, in.p); err != nil {
			return nil, err
		}
		body, err := json.Marshal(struct {
			Problem  string `json:"problem"`
			MaxFlips uint64 `json:"max_flips"`
		}{text.String(), in.flips})
		if err != nil {
			return nil, err
		}
		e.kinds[i] = serveKind{in: in, ref: ref, body: body[:len(body)-1]} // drop the closing brace
	}
	svc, err := serve.New(serve.Config{NumDevices: 2})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	e.svc = svc
	e.srv = &http.Server{Handler: serve.NewHTTPHandler(svc, nil, nil)}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	e.base = "http://" + ln.Addr().String()
	for k := range e.kinds {
		if o := e.job(context.Background(), k, 1, nil); o.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up job: %w", o.err)
		}
	}
	return e, nil
}

func newLoopbackClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

func (e *serveEnv) run(ctx context.Context, seed uint64, deadline time.Time, minOps int, tr *tracing) []op {
	var (
		mu  sync.Mutex
		ops []op
		wg  sync.WaitGroup
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				mu.Lock()
				enough := len(ops) >= minOps && !time.Now().Before(deadline)
				mu.Unlock()
				if enough {
					return
				}
				o := e.job(ctx, (c+k)%len(e.kinds), opSeed(seed, serveClients*k+c), tr)
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops
}

// jobStatus is the part of the service's job JSON the client reads.
type jobStatus struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Error     string     `json:"error"`
	Result    *struct {
		BestEnergy int64  `json:"best_energy"`
		Solution   string `json:"solution"`
		Evaluated  uint64 `json:"evaluated"`
	} `json:"result"`
}

// job submits one job of the given kind and waits until the client sees
// it settled; the operation's wall time runs from the POST to that
// moment.
func (e *serveEnv) job(ctx context.Context, kind int, seed uint64, tr *tracing) op {
	k := &e.kinds[kind]
	root := tr.start("bench.job", 0)
	start := time.Now()
	sp := tr.start("http.submit", root)
	st, err := e.submit(ctx, append(k.body[:len(k.body):len(k.body)], fmt.Sprintf(`,"seed":%d}`, seed)...))
	tr.end(sp)
	tr.sample("serve.submit_ms", msSince(start))
	if err != nil {
		tr.end(root)
		if errors.Is(err, errRejected) {
			tr.count("serve.rejected", 1)
		}
		return op{wall: time.Since(start), err: err}
	}
	sp = tr.start("http.wait", root)
	st, err = e.await(ctx, st.ID)
	seen := time.Now()
	tr.end(sp)
	tr.end(root)
	o := op{wall: seen.Sub(start), err: err}
	if err != nil {
		return o
	}
	if st.State != "done" || st.Result == nil || st.Started == nil || st.Finished == nil {
		o.err = fmt.Errorf("job %s settled %q: %s", st.ID, st.State, st.Error)
		return o
	}
	tr.interval("serve.queue", root, st.Submitted, *st.Started)
	tr.interval("serve.run", root, *st.Started, *st.Finished)
	tr.interval("serve.settle", root, *st.Finished, seen)
	tr.sample("serve.queue_ms", ms(st.Started.Sub(st.Submitted)))
	tr.sample("serve.run_ms", ms(st.Finished.Sub(*st.Started)))
	tr.sample("serve.settle_ms", ms(seen.Sub(*st.Finished)))
	o.evaluated = float64(st.Result.Evaluated)
	o.ratio = ratio(st.Result.BestEnergy, k.ref)
	x, err := bitvec.FromString(st.Result.Solution)
	if err != nil {
		o.err = fmt.Errorf("job %s: %w", st.ID, err)
		return o
	}
	o.err = checkTimed(tr, k.in.p, x, st.Result.BestEnergy)
	return o
}

var errRejected = errors.New("job refused: queue full")

func (e *serveEnv) submit(ctx context.Context, body []byte) (jobStatus, error) {
	var st jobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return st, err
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		err = json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusTooManyRequests:
		err = errRejected
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return st, err
}

// await follows the job's NDJSON event stream, which the service ends
// right after the terminal status line, and returns that last line.
func (e *serveEnv) await(ctx context.Context, id string) (jobStatus, error) {
	var last jobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/v1/jobs/"+id+"/events?interval=1s", nil)
	if err != nil {
		return last, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return last, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var st jobStatus
		if err := dec.Decode(&st); err == io.EOF {
			return last, nil
		} else if err != nil {
			return last, fmt.Errorf("events %s: %w", id, err)
		}
		last = st
	}
}

// drain reads what is left of a response body and closes it, so the
// connection goes back to the pool.
func drain(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

func (e *serveEnv) close() {
	e.srv.Close()
	<-e.served
	e.svc.Close()
	e.client.CloseIdleConnections()
}

// clusterEnv runs whole loopback clusters: cluster.NewCoordinator plus
// two cluster.Workers over real loopback HTTP with a cluster-wide flip
// budget, the only path through the lease/publish/heartbeat protocol.
// One operation is one whole cluster run, from coordinator start to
// both workers' final flush.
type clusterEnv struct {
	in     instance
	ref    int64
	client *http.Client
}

func (e *clusterEnv) clusterRun(ctx context.Context, seed, flips uint64, tr *tracing) op {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	root := tr.start("bench.cluster_run", 0)
	start := time.Now()
	st, evaluated, err := e.runCluster(ctx, seed, flips, tr, root)
	o := op{wall: time.Since(start), err: err}
	tr.end(root)
	if err != nil {
		return o
	}
	tr.count("cluster.evaluated", evaluated)
	tr.count("cluster.wall_s", o.wall.Seconds())
	o.evaluated = evaluated
	o.ratio = ratio(st.BestEnergy, e.ref)
	o.err = checkTimed(tr, e.in.p, st.Best, st.BestEnergy)
	return o
}

// runCluster serves a fresh coordinator on a loopback listener, runs two
// workers against it until the coordinator has seen the flip budget and
// both workers have flushed, and returns the coordinator's final status
// with the evaluated count the workers report. The workers are
// configured as abs-worker is by default: a 2-SM CPU device and the
// default 200 ms publish/lease exchange.
func (e *clusterEnv) runCluster(ctx context.Context, seed, flips uint64, tr *tracing, root int) (cluster.Result, float64, error) {
	coord, err := cluster.NewCoordinator(e.in.p, cluster.CoordinatorConfig{Seed: seed, MaxFlips: flips})
	if err != nil {
		return cluster.Result{}, 0, err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cluster.Result{}, 0, err
	}
	srv := &http.Server{Handler: cluster.NewHTTPHandler(coord)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	base := "http://" + ln.Addr().String()
	workers := make([]*cluster.Worker, 2)
	for i := range workers {
		var t cluster.Transport = cluster.NewHTTPTransport(base, e.client)
		if tr != nil {
			t = &timedTransport{inner: t, tr: tr, parent: root}
		}
		workers[i], err = cluster.NewWorker(cluster.WorkerConfig{
			Transport: t,
			WorkerID:  fmt.Sprintf("w%d", i),
			Device:    gpusim.ScaledCPU(2),
		})
		if err != nil {
			return cluster.Result{}, 0, err
		}
	}
	reports := make([]*cluster.WorkerReport, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *cluster.Worker) {
			defer wg.Done()
			reports[i], errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return cluster.Result{}, 0, fmt.Errorf("cluster run: %w", err)
	}
	var evaluated float64
	for i, r := range reports {
		if errs[i] != nil {
			return cluster.Result{}, 0, fmt.Errorf("worker %d: %w", i, errs[i])
		}
		if r.Result != nil {
			evaluated += float64(r.Result.Evaluated)
		}
	}
	st := coord.Status()
	if !st.BestKnown {
		return st, 0, errors.New("cluster run: no publication reached the coordinator's pool")
	}
	return st, evaluated, nil
}

// timedTransport wraps a worker's cluster.Transport and times every RPC
// from the worker's side of the wire.
type timedTransport struct {
	inner  cluster.Transport
	tr     *tracing
	parent int
}

func (t *timedTransport) Register(ctx context.Context, req cluster.RegisterRequest) (*cluster.RegisterResponse, error) {
	return timeRPC(t, "register", func() (*cluster.RegisterResponse, error) { return t.inner.Register(ctx, req) })
}

func (t *timedTransport) Lease(ctx context.Context, req cluster.LeaseRequest) (*cluster.LeaseResponse, error) {
	return timeRPC(t, "lease", func() (*cluster.LeaseResponse, error) { return t.inner.Lease(ctx, req) })
}

func (t *timedTransport) Publish(ctx context.Context, req cluster.PublishRequest) (*cluster.PublishResponse, error) {
	// Solutions travel as one '0'/'1' character per bit plus an int64
	// energy: a payload size computed from the request, not measured on
	// the wire.
	var payload int
	for _, r := range req.Results {
		payload += len(r.X) + 8
	}
	t.tr.count("cluster.publish_bytes", float64(payload))
	return timeRPC(t, "publish", func() (*cluster.PublishResponse, error) { return t.inner.Publish(ctx, req) })
}

func (t *timedTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (*cluster.HeartbeatResponse, error) {
	return timeRPC(t, "heartbeat", func() (*cluster.HeartbeatResponse, error) { return t.inner.Heartbeat(ctx, req) })
}

func timeRPC[T any](t *timedTransport, name string, call func() (T, error)) (T, error) {
	sp := t.tr.start("cluster.rpc_"+name, t.parent)
	start := time.Now()
	v, err := call()
	t.tr.end(sp)
	t.tr.sample("cluster.rpc_"+name+"_ms", msSince(start))
	t.tr.count("cluster.rpc_calls", 1)
	// ErrDone is how the coordinator says the run is over, not a fault.
	if err != nil && !errors.Is(err, cluster.ErrDone) {
		t.tr.count("cluster.rpc_errors", 1)
	}
	return v, err
}
