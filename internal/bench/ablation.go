package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/rng"
	"abs/internal/search"
)

// AblationEfficiency validates the search-efficiency ladder of §2
// empirically: the measured weight-accesses per evaluated solution of
// Algorithms 1–4 against the Lemma 1–3 / Theorem 1 predictions.
func AblationEfficiency(w io.Writer, s Scale) error {
	header(w, "Ablation: search efficiency of Algorithms 1-4 (ops per evaluated solution)")
	tw := newTab(w)
	fmt.Fprintln(tw, "n\tsteps m\tAlg.1 naive\t(~n²)\tAlg.2 diff\t(~n+n²/m)\tAlg.3 tracked\t(~n)\tAlg.4 bulk\t(~1)")
	for _, n := range []int{64, 128, 256} {
		p := randqubo.Generate(n, uint64(n))
		x0 := bitvec.Random(n, rng.New(uint64(n)+1))
		m := 4 * n
		r1 := search.Naive(p, x0, m, search.AcceptDownhill, rng.New(2))
		r2 := search.Diff(p, x0, m, search.AcceptDownhill, rng.New(2))
		r3 := search.Tracked(p, x0, m, search.AcceptDownhill, rng.New(2))
		r4 := search.Bulk(p, x0, m, search.NewOffsetWindow(8))
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t(%d)\t%.0f\t(%d)\t%.0f\t(%d)\t%.2f\t(1)\n",
			n, m,
			r1.Stats.Efficiency(), n*n,
			r2.Stats.Efficiency(), n+n*n/m,
			r3.Stats.Efficiency(), n,
			r4.Stats.Efficiency())
	}
	return tw.Flush()
}

// AblationStraight quantifies the straight search (Algorithm 5) against
// the two alternatives for repositioning a search unit on a new GA
// target: re-deriving the Δ register file from scratch (O(n²)) and
// re-walking from the zero vector. Targets are drawn near a common
// centre, as GA targets are after the pool starts converging.
func AblationStraight(w io.Writer, s Scale) error {
	header(w, "Ablation: GA-handoff strategies (straight search vs. re-initialization)")
	n := 512
	p := randqubo.Generate(n, 512)
	r := rng.New(3)
	centre := bitvec.Random(n, r)
	const handoffs = 32
	targets := make([]*bitvec.Vector, handoffs)
	for i := range targets {
		t := centre.Clone()
		for f := 0; f < 24; f++ { // GA targets cluster near the pool
			t.Flip(r.Intn(n))
		}
		targets[i] = t
	}

	// Strategy A (paper): one persistent state, straight search between
	// targets. Flips tracked by the state itself.
	stateA := qubo.NewState(p, centre)
	startA := time.Now()
	for _, t := range targets {
		search.Straight(stateA, t)
	}
	durA, flipsA := time.Since(startA), stateA.Flips()

	// Strategy B: rebuild Δ from scratch at every target (Eq. 4 for all
	// k: O(n²) per handoff), as a GA+local-search combination without
	// the paper's machinery would.
	startB := time.Now()
	var flipsB uint64
	for _, t := range targets {
		st := qubo.NewState(p, t)
		flipsB += st.Flips()
	}
	durB := time.Since(startB)

	// Strategy C: restart at the zero vector and walk to the target
	// (popcount(target) ≈ n/2 flips per handoff).
	startC := time.Now()
	var flipsC uint64
	for _, t := range targets {
		st := qubo.NewZeroState(p)
		search.Straight(st, t)
		flipsC += st.Flips()
	}
	durC := time.Since(startC)

	tw := newTab(w)
	fmt.Fprintln(tw, "Strategy\tFlips per handoff\tTime per handoff\tSearches while moving")
	fmt.Fprintf(tw, "straight search (paper)\t%.1f\t%v\tyes\n",
		float64(flipsA)/handoffs, (durA / handoffs).Round(time.Microsecond))
	fmt.Fprintf(tw, "recompute Δ (O(n²))\t%.1f\t%v\tno\n",
		float64(flipsB)/handoffs, (durB / handoffs).Round(time.Microsecond))
	fmt.Fprintf(tw, "zero-restart walk\t%.1f\t%v\tonly from 0\n",
		float64(flipsC)/handoffs, (durC / handoffs).Round(time.Microsecond))
	return tw.Flush()
}

// AblationSelection compares selection policies plugged into the same
// Algorithm 4 loop on the same flip budget: the paper's RNG-free
// offset window, pure greedy, uniform random, and the Metropolis
// window.
func AblationSelection(w io.Writer, s Scale) error {
	header(w, "Ablation: selection policies on the same flip budget")
	n := 256
	p := randqubo.Generate(n, 256)
	_, hi := p.EnergyBound()
	budget := 20 * n
	policies := []struct {
		name string
		pol  search.Policy
	}{
		{"offset window l=16 (paper)", search.NewOffsetWindow(16)},
		{"offset window l=64", search.NewOffsetWindow(64)},
		{"greedy (l=n)", search.Greedy{}},
		{"uniform random (l=1)", &search.RandomBit{R: rng.New(5)}},
		{"metropolis window", &search.MetropolisWindow{L: 16, T: float64(hi) / float64(32*n), R: rng.New(6)}},
		{"tabu window (tenure 16)", search.NewTabuWindow(16, 16)},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Policy\tBest energy after budget\tFlips")
	for _, pc := range policies {
		st := qubo.NewZeroState(p)
		search.Run(st, budget, pc.pol)
		fmt.Fprintf(tw, "%s\t%d\t%d\n", pc.name, st.BestEnergy(), st.Flips())
	}
	return tw.Flush()
}

// AblationPool measures the solution-pool distinctness guard: the same
// solve with and without duplicate rejection.
func AblationPool(w io.Writer, s Scale) error {
	header(w, "Ablation: solution-pool distinctness guard")
	p := randqubo.Generate(512, 77)
	budget := 4 * s.RateBudget
	tw := newTab(w)
	fmt.Fprintln(tw, "Pool policy\tBest energy\tInserted\tRejected as duplicate/worse")
	for _, allowDup := range []bool{false, true} {
		opt := solveOptions()
		opt.GA.AllowDuplicatePool = allowDup
		res, err := MeasureRate(p, opt, budget)
		if err != nil {
			return err
		}
		name := "distinct (paper)"
		if allowDup {
			name = "duplicates allowed"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", name, res.BestEnergy, res.Inserted, res.Rejected)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: with duplicates allowed the pool silts up with copies of one champion;")
	fmt.Fprintln(w, "the guard keeps GA parents diverse (§2.2.1).")
	return nil
}

// AblationStorage compares the dense paper kernel with this module's
// sparse adjacency engine on a G-set-family graph: same framework,
// same budget, different flip cost (O(n) vs. O(deg)).
func AblationStorage(w io.Writer, s Scale) error {
	header(w, "Ablation: dense paper kernel vs. sparse adjacency engine (extension)")
	f := maxcut.GSetFamily{Name: "G1", N: 800, Edges: 19176,
		Weights: maxcut.WeightsPlusOne, TargetFrac: 1}
	g, err := f.Generate()
	if err != nil {
		return err
	}
	p, err := maxcut.ToQUBO(g)
	if err != nil {
		return err
	}
	budget := 4 * s.RateBudget
	tw := newTab(w)
	fmt.Fprintln(tw, "Engine\tFlips\tFlips/s\tBest cut\tEvaluated/flip")
	for _, st := range []core.Storage{core.StorageDense, core.StorageSparse} {
		opt := solveOptions()
		opt.Tuning.Storage = st
		res, err := MeasureRate(p, opt, budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%v\t%d\t%s\t%d\t%.1f\n",
			st, res.Flips, FormatRate(float64(res.Flips)/res.Elapsed.Seconds()),
			maxcut.CutFromEnergy(res.BestEnergy), res.EvaluatedPerFlip)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "graph: %s twin, %d vertices, %d edges (density %.4f)\n",
		f.Name, g.N(), g.M(), p.Density())
	return nil
}

// AblationAdaptive compares the static per-block window ladder (§2.1)
// with the self-rescheduling adaptive variant (the paper's §5 future
// work, implemented in this module) on the same wall budget.
func AblationAdaptive(w io.Writer, s Scale) error {
	header(w, "Ablation: static window ladder vs. adaptive per-block rescheduling (extension)")
	p := randqubo.Generate(768, 768)
	budget := 4 * s.RateBudget
	tw := newTab(w)
	fmt.Fprintln(tw, "Scheduling\tBest energy\tFlips")
	for _, adaptive := range []bool{false, true} {
		opt := solveOptions()
		opt.Adaptive = adaptive
		res, err := MeasureRate(p, opt, budget)
		if err != nil {
			return err
		}
		name := "static ladder (paper §2.1)"
		if adaptive {
			name = "adaptive (paper §5 future work)"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\n", name, res.BestEnergy, res.Flips)
	}
	return tw.Flush()
}

// AblationLadder reports which rungs of the per-block window ladder
// (§2.1's parallel-tempering-like spread) actually contribute pool
// insertions, using the solver's per-block statistics.
func AblationLadder(w io.Writer, s Scale) error {
	header(w, "Ablation: window-ladder contribution (per-block statistics)")
	p := randqubo.Generate(512, 99)
	opt := solveOptions()
	res, err := MeasureRate(p, opt, 4*s.RateBudget)
	if err != nil {
		return err
	}
	// Bucket blocks by window length.
	type bucket struct {
		blocks          int
		flips, pub, ins uint64
	}
	buckets := map[int]*bucket{}
	var windows []int
	for _, bs := range res.BlockStats {
		b, ok := buckets[bs.Window]
		if !ok {
			b = &bucket{}
			buckets[bs.Window] = b
			windows = append(windows, bs.Window)
		}
		b.blocks++
		b.flips += bs.Flips
		b.pub += bs.Published
		b.ins += bs.Inserted
	}
	sort.Ints(windows)
	tw := newTab(w)
	fmt.Fprintln(tw, "Window l\tBlocks\tFlips\tPublished\tInserted into pool")
	for _, l := range windows {
		b := buckets[l]
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", l, b.blocks, b.flips, b.pub, b.ins)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: every rung publishes, but pool admissions concentrate where the")
	fmt.Fprintln(w, "exploration/exploitation balance fits the instance — the reason the paper")
	fmt.Fprintln(w, "runs a spread of window lengths rather than one tuned value (§2.1).")
	return nil
}

// AblationParameters sweeps the two solver knobs the paper leaves
// implicit — the local-search phase length (flips between target reads)
// and the GA pool size — on a fixed instance and budget, showing the
// framework's sensitivity to them.
func AblationParameters(w io.Writer, s Scale) error {
	header(w, "Ablation: solver parameter sensitivity (extension)")
	p := randqubo.Generate(512, 1234)
	budget := 2 * s.RateBudget
	tw := newTab(w)
	fmt.Fprintln(tw, "LocalSteps\tPoolSize\tBest energy\tFlips\tPool inserts")
	for _, steps := range []int{64, 512, 4096} {
		for _, pool := range []int{8, 64} {
			opt := solveOptions()
			opt.LocalSteps = steps
			opt.GA.PoolSize = pool
			res, err := MeasureRate(p, opt, budget)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n",
				steps, pool, res.BestEnergy, res.Flips, res.Inserted)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: short phases trade flip throughput for GA coupling (more straight")
	fmt.Fprintln(w, "searches per second); the framework is robust across a wide range, which is")
	fmt.Fprintln(w, "why the paper does not tune these per instance.")
	return nil
}
