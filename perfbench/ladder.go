package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"abs/internal/backend"
	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/dkernel"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
	"abs/internal/search"
)

// Sinks keep the compiler from discarding results of measured calls.
var (
	sinkE int64
	sinkV *bitvec.Vector
	sinkB bool
)

// perCall runs fn in batches of batch calls until d has passed (and at
// least three batches ran) and returns the median time per call in
// nanoseconds; the median discards batches a preemption landed in.
func perCall(d time.Duration, batch int, fn func(i int)) float64 {
	var per []float64
	deadline := time.Now().Add(d)
	for i := 0; len(per) < 3 || time.Now().Before(deadline); {
		t := time.Now()
		for j := 0; j < batch; j, i = j+1, i+1 {
			fn(i)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// ladder drives the layers below core through their public entry
// points on p, each for one equal slice of budget, and stores the
// per-layer metrics in m. Layers are measured bottom-up, each the way
// the layer above calls it, so every kept_frac compares a rung with the
// rung below.
func ladder(p *qubo.Problem, seed uint64, budget time.Duration, m map[string]float64) error {
	slice := budget / 11
	n := p.N()
	opt := core.DefaultOptions()
	r := rng.New(seed)
	xs := make([]*bitvec.Vector, 16)
	es := make([]int64, len(xs))
	for i := range xs {
		xs[i] = bitvec.Random(n, r)
		es[i] = p.Energy(xs[i])
	}

	// dkernel: one FlipTiles pass over a full weight row, as a dense
	// flip makes it. Each row is applied and then undone, so the deltas
	// stay bounded however long the rung runs.
	d := make([]int64, n)
	for i := range d {
		d[i] = int64(p.Weight(i, i))
	}
	sgnc := make([]int16, n)
	for i := range sgnc {
		sgnc[i] = 2
	}
	tmins := make([]int64, n/dkernel.TileWidth+1)
	m["dkernel.flip_ns"] = perCall(slice, 256, func(i int) {
		sinkE += dkernel.FlipTiles(d, p.Row((i/2)%n), sgnc, tmins, i%2 == 1)
	})
	// Computed from the array sizes: int64 deltas read and written,
	// int16 row and sign entries read.
	m["dkernel.bytes_per_flip"] = float64(n * (8 + 8 + 2 + 2))
	m["dkernel.gbps"] = frac(m["dkernel.bytes_per_flip"], m["dkernel.flip_ns"])

	// qubo: Engine.Flip on the representation the engine picks for p,
	// and the full energy evaluation the ingest gate re-checks with.
	newState := stateFactory(p)
	eng := newState()
	ks := make([]int, 4096)
	for i := range ks {
		ks[i] = r.Intn(n)
	}
	m["qubo.flip_ns"] = perCall(slice, 256, func(i int) { eng.Flip(ks[i%len(ks)]) })
	m["qubo.kept_frac"] = frac(m["dkernel.flip_ns"], m["qubo.flip_ns"])
	m["qubo.energy_us"] = perCall(slice, 1, func(i int) { sinkE += p.Energy(xs[i%len(xs)]) }) / 1e3

	// search: Algorithm 4's round of LocalSteps flips under an offset
	// window from the middle of the engine's default ladder [4, n/4],
	// and Algorithm 5's straight search to a random target.
	pol := search.NewOffsetWindow((4 + max(4, n/4)) / 2)
	s := newState()
	m["search.round_us"] = perCall(slice, 1, func(int) { search.Run(s, opt.LocalSteps, pol) }) / 1e3
	m["search.straight_us"] = perCall(slice, 1, func(i int) { search.Straight(s, xs[i%len(xs)]) }) / 1e3
	m["search.kept_frac"] = frac(float64(opt.LocalSteps)*m["qubo.flip_ns"]/1e3, m["search.round_us"])

	// backend: the straight backend's unit, retargeted to GA targets as
	// the engine's blocks are.
	bpt, err := opt.Device.BestBitsPerThread(n)
	if err != nil {
		return err
	}
	occ, err := opt.Device.Occupancy(n, bpt)
	if err != nil {
		return err
	}
	blocks := occ.ActiveBlocks * opt.NumGPUs
	be, err := backend.New("straight", backend.Config{
		Problem: p, NewState: newState, Units: blocks, Seed: seed,
		LocalSteps: opt.LocalSteps, WindowMin: 4, WindowMax: max(4, n/4),
	})
	if err != nil {
		return err
	}
	host, err := ga.NewHost(n, opt.GA, rng.New(seed))
	if err != nil {
		return err
	}
	targets := make([]*bitvec.Vector, 64)
	for i := range targets {
		targets[i] = host.NewTarget()
	}
	u := be.NewUnit(0)
	m["backend.round_us"] = perCall(slice, 1, func(int) { u.Round(nil) }) / 1e3
	m["backend.retarget_us"] = perCall(slice, 1, func(i int) { u.Retarget(targets[i%len(targets)], nil) }) / 1e3

	if err := gpusimRung(be, opt.Device, blocks, slice, m); err != nil {
		return err
	}

	// ga: target generation, the admission prefilter and insertion, on
	// a full pool of known energies (made up: the pool never checks).
	pool := host.Pool()
	for i := 0; i < pool.Cap(); i++ {
		host.Insert(bitvec.Random(n, r), -int64(r.Intn(1<<20)))
	}
	m["ga.new_target_us"] = perCall(slice/3, 16, func(int) { sinkV = host.NewTarget() }) / 1e3
	m["ga.would_admit_us"] = perCall(slice/3, 64, func(i int) {
		sinkB = pool.WouldAdmit(xs[i%len(xs)], -int64(i%(1<<20)))
	}) / 1e3
	base := bitvec.Random(n, r)
	m["ga.insert_us"] = perCall(slice/3, 16, func(i int) {
		x := base.Clone()
		x.Flip(i % n)
		host.Insert(x, -int64(r.Intn(1<<20)))
	}) / 1e3

	// core's ingest gate on publications it must re-check: a pool of
	// unknown-energy seeds admits any evaluated candidate, so every Vet
	// pays the energy recheck.
	gate := core.NewGate(p, false)
	fresh, err := ga.NewHost(n, opt.GA, rng.New(seed+1))
	if err != nil {
		return err
	}
	if v := gate.Vet(fresh.Pool(), xs[0], es[0]); v != core.VerdictAdmit {
		return fmt.Errorf("gate rung: verdict %d on an honest publication, want admit", v)
	}
	m["core.gate_vet_us"] = perCall(slice, 1, func(i int) {
		gate.Vet(fresh.Pool(), xs[i%len(xs)], es[i%len(xs)])
	}) / 1e3
	return nil
}

// stateFactory builds zero-positioned engines the way core.NewEngine
// does: sparse instances are sparsified once and shared.
func stateFactory(p *qubo.Problem) func() qubo.Engine {
	if qubo.AutoRep(p) == qubo.RepSparse {
		sp := qubo.Sparsify(p)
		return func() qubo.Engine { return qubo.NewSparseZeroState(sp) }
	}
	return func() qubo.Engine { return qubo.NewZeroState(p) }
}

// gpusimRung launches the engine's block population on one simulated
// device, every block driving its own straight unit round after round,
// once at GOMAXPROCS=1 and once at every CPU: the measured counterpart
// of the paper's Figure 8.
func gpusimRung(be backend.Backend, spec gpusim.DeviceSpec, blocks int, slice time.Duration, m map[string]float64) error {
	fleet, err := gpusim.NewFleet(spec, 1)
	if err != nil {
		return err
	}
	measure := func(procs int) (rate, launchMs, stopMs float64, err error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var flips atomic.Uint64
		block := func(bc gpusim.BlockContext) {
			u := be.NewUnit(bc.GlobalBlock)
			for !bc.Stopped() {
				f, _, _, _ := u.Round(bc.Stopped)
				flips.Add(uint64(f))
			}
		}
		start := time.Now()
		run, err := fleet.Device(0).Launch(blocks, 0, block)
		if err != nil {
			return 0, 0, 0, err
		}
		launched := time.Since(start)
		time.Sleep(slice)
		done, elapsed := flips.Load(), time.Since(start)
		stopStart := time.Now()
		run.Stop()
		return float64(done) / elapsed.Seconds(), ms(launched), msSince(stopStart), nil
	}
	m["gpusim.blocks"] = float64(blocks)
	if m["gpusim.flips_per_s_1p"], _, _, err = measure(1); err != nil {
		return err
	}
	if m["gpusim.flips_per_s"], m["gpusim.launch_ms"], m["gpusim.stop_ms"], err = measure(runtime.NumCPU()); err != nil {
		return err
	}
	m["gpusim.scaling_eff"] = frac(m["gpusim.flips_per_s"], m["gpusim.flips_per_s_1p"]*float64(runtime.NumCPU()))
	return nil
}

// clusterRung runs whole loopback cluster runs on the workload's
// instance with the scale's cluster flip budget, timing every worker
// RPC; cluster.kept_frac compares them with the same instance's
// single-node solves.
func clusterRung(cfg runConfig, in instance, tr *tracing, d time.Duration) error {
	ref, err := referenceEnergy(in.p.Name())
	if err != nil {
		return err
	}
	c := &clusterEnv{in: in, ref: ref, client: newLoopbackClient()}
	defer c.client.CloseIdleConnections()
	deadline := time.Now().Add(d)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if o := c.clusterRun(context.Background(), opSeed(cfg.runSeed, i), cfg.scale.clusterFlips, tr); o.err != nil {
			return o.err
		}
	}
	return nil
}

// serveRung runs the serve job mix for d, recording each job's submit,
// queue, run and settle times.
func serveRung(cfg runConfig, _ instance, tr *tracing, d time.Duration) error {
	e, err := setupServeMix(cfg.scale, cfg.instanceSeed)
	if err != nil {
		return err
	}
	defer e.close()
	for _, o := range e.run(context.Background(), cfg.runSeed, time.Now().Add(d), 2, tr) {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}
