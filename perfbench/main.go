// Command perfbench is the repository benchmark. Each run measures one
// workload for a fixed time and prints a human-readable report, then one
// JSON line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (search rate, time
// per operation, quality at fixed work, peak heap, set-up time). With
// --trace 1 the run measures the workload untraced and then traced —
// spans recorded around every call the benchmark makes into the
// program, whose cost is timed directly as the tracing overhead — and
// then drives each layer's public entry points on the workload's
// instance (the layer ladder); the metrics are the per-layer ones.
// Every returned best vector is re-evaluated on the workload's own
// instance, and a mismatch fails the run.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload sparse-solve --seed 3 --seconds 20 --trace 1
//
// Two subcommands: "compare a.json b.json" diffs two result files and
// refuses when their kernel or CPU count differ; "calibrate" prints a
// fresh reference.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"abs/internal/dkernel"
	"abs/internal/qubo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a --trace 0 run reports (BENCHMARK.json's
// end_to_end list).
var endToEndMetrics = []metricDef{
	{"search_rate", "1/s"},
	{"solve_s", "s"},
	{"energy_ratio", "ratio"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are what a --trace 1 run reports (BENCHMARK.json's
// per_layer list), bottom layer first. Every workload measures each of
// them on its own instance.
var layerMetrics = []metricDef{
	{"dkernel.flip_ns", "ns"},
	{"dkernel.bytes_per_flip", "B"},
	{"dkernel.gbps", "GB/s"},
	{"qubo.flip_ns", "ns"},
	{"qubo.kept_frac", "ratio"},
	{"qubo.energy_us", "us"},
	{"search.round_us", "us"},
	{"search.straight_us", "us"},
	{"search.kept_frac", "ratio"},
	{"backend.round_us", "us"},
	{"backend.retarget_us", "us"},
	{"gpusim.flips_per_s_1p", "1/s"},
	{"gpusim.flips_per_s", "1/s"},
	{"gpusim.scaling_eff", "ratio"},
	{"gpusim.launch_ms", "ms"},
	{"gpusim.stop_ms", "ms"},
	{"ga.new_target_us", "us"},
	{"ga.would_admit_us", "us"},
	{"ga.insert_us", "us"},
	{"core.new_engine_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"core.pump_ms_p50", "ms"},
	{"core.pump_ms_max", "ms"},
	{"core.pump_busy_frac", "ratio"},
	{"core.finish_ms", "ms"},
	{"core.gate_vet_us", "us"},
	{"core.published", "count"},
	{"core.admit_frac", "ratio"},
	{"core.dropped_frac", "ratio"},
	{"core.unit_share_min", "ratio"},
	{"core.kept_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// extraMetrics are per-layer numbers a traced run prints and writes to
// its result file but keeps out of the per-layer JSON. The serve and
// cluster layers' exist only on the workload that runs the layer (n/a
// elsewhere). The rest cannot move on a healthy run: the gate's
// quarantines and the supervisor's respawns are 0, every solve runs one
// device so its share is 1, and the block count follows from the
// default options.
var extraMetrics = []metricDef{
	{"gpusim.blocks", "count"},
	{"core.quarantined", "count"},
	{"core.respawns", "count"},
	{"core.device_share_min", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.settle_ms", "ms"},
	{"serve.rejected", "count"},
	{"cluster.rpc_register_ms_p50", "ms"},
	{"cluster.rpc_register_ms_p90", "ms"},
	{"cluster.rpc_lease_ms_p50", "ms"},
	{"cluster.rpc_lease_ms_p90", "ms"},
	{"cluster.rpc_publish_ms_p50", "ms"},
	{"cluster.rpc_publish_ms_p90", "ms"},
	{"cluster.rpc_heartbeat_ms_p50", "ms"},
	{"cluster.rpc_heartbeat_ms_p90", "ms"},
	{"cluster.rpc_calls", "count"},
	{"cluster.rpc_errors", "count"},
	{"cluster.publish_bytes", "B"},
	{"cluster.kept_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON line a run ends with.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outDir is where runs leave their result and span files, under the
// build directory the benchmark is run from.
var outDir = filepath.Join(".bench_build", "perfbench")

type runConfig struct {
	workload     string
	scale        scale
	runSeed      uint64
	instanceSeed uint64
	measure      time.Duration
	trace        bool
	out          string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:], stdout, stderr)
		case "calibrate":
			return calibrateCmd(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", DefaultRunSeed, "run seed: solver seeds and the serve job stream derive from it")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	heldOut := fs.Bool("held-out", false, "solve the held-out instance instead of the default one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, okWorkload := workloads[*name]
	if !okWorkload || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		workload:     *name,
		scale:        scales["full"],
		runSeed:      *seed,
		instanceSeed: DefaultInstanceSeed,
		measure:      time.Duration(*seconds * float64(time.Second)),
		trace:        *trace == 1,
		out:          outDir,
	}
	if *heldOut {
		cfg.instanceSeed = HeldOutInstanceSeed
	}
	oc, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(oc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !oc.Correct {
		return 1
	}
	return 0
}

// stamp says where and how a result was measured.
type stamp struct {
	Workload     string `json:"workload"`
	Trace        bool   `json:"trace"`
	RunSeed      uint64 `json:"run_seed"`
	InstanceSeed uint64 `json:"instance_seed"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	Kernel       string `json:"kernel"`
	Accelerated  bool   `json:"accelerated"`
	GOARCH       string `json:"goarch"`
	GoVersion    string `json:"go_version"`
}

func newStamp(cfg runConfig) stamp {
	return stamp{
		Workload: cfg.workload, Trace: cfg.trace,
		RunSeed: cfg.runSeed, InstanceSeed: cfg.instanceSeed,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: dkernel.Name(), Accelerated: dkernel.Accelerated(),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("workload=%s trace=%v run_seed=%d instance_seed=%d gomaxprocs=%d num_cpu=%d kernel=%s accelerated=%v goarch=%s go=%s",
		s.Workload, s.Trace, s.RunSeed, s.InstanceSeed, s.GOMAXPROCS, s.NumCPU, s.Kernel, s.Accelerated, s.GOARCH, s.GoVersion)
}

// result is the file every run leaves in <out>/results for compare.
type result struct {
	Stamp   stamp              `json:"stamp"`
	Outcome outcome            `json:"outcome"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

func execute(cfg runConfig, w io.Writer) (outcome, error) {
	st := newStamp(cfg)
	fmt.Fprintf(w, "# %s\n", st)
	e, setupS, err := setUp(cfg)
	if err != nil {
		return outcome{}, err
	}
	var oc outcome
	var extra map[string]float64
	if cfg.trace {
		oc, extra, err = tracedRun(cfg, e, w)
		if err != nil {
			return outcome{}, err
		}
	} else {
		ph := measurePhase(e, cfg.runSeed, cfg.measure, cfg.scale.minOps, nil)
		oc = ph.outcome(endToEnd(ph, setupS), endToEndMetrics)
		reportEndToEnd(w, ph, oc)
	}
	return oc, writeJSON(filepath.Join(cfg.out, "results",
		fmt.Sprintf("%s-i%d-s%d-t%v.json", cfg.workload, cfg.instanceSeed, cfg.runSeed, cfg.trace)),
		result{Stamp: st, Outcome: oc, Extra: extra})
}

// setUp builds the workload's environment scale.setups times and keeps
// the last; setup_s is the median, not one cold sample. Each set-up
// starts with the freed heap handed back to the OS, so each faults its
// memory in as a fresh process would; otherwise whether the runtime's
// background scavenger had returned the last set-up's pages yet made
// the time jump between two values.
func setUp(cfg runConfig) (*solveEnv, float64, error) {
	var times []float64
	var e *solveEnv
	for i := 0; i < cfg.scale.setups; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		e, err = workloads[cfg.workload].setup(cfg.scale, cfg.instanceSeed)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

// phase is one measured stretch of operations.
type phase struct {
	ops      []op
	wall     time.Duration
	peakHeap uint64
}

func measurePhase(e *solveEnv, seed uint64, d time.Duration, minOps int, tr *tracing) phase {
	runtime.GC()
	hs := startHeapSampler()
	start := time.Now()
	ops := e.run(context.Background(), seed, start.Add(d), minOps, tr)
	wall := time.Since(start)
	return phase{ops: ops, wall: wall, peakHeap: hs.finish()}
}

// walls returns the successful operations' wall times in seconds.
func (ph phase) walls() []float64 {
	var ws []float64
	for _, o := range ph.ops {
		if o.err == nil {
			ws = append(ws, o.wall.Seconds())
		}
	}
	return ws
}

func (ph phase) failed() int { return len(ph.ops) - len(ph.walls()) }

// outcome packages the phase's counts with the metrics in defs.
func (ph phase) outcome(values map[string]float64, defs []metricDef) outcome {
	oc := outcome{Attempted: len(ph.ops), Failed: ph.failed(), Metrics: map[string]metric{}}
	oc.Correct = oc.Failed == 0
	for _, d := range defs {
		oc.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return oc
}

// endToEnd computes the end-to-end metrics of a phase. Failed
// operations count in the outcome's failed field, never in a timing.
// Both timings are medians over operations, so a stretch of host
// contention that covers less than half a phase does not move them.
func endToEnd(ph phase, setupS float64) map[string]float64 {
	var ratios, rates []float64
	for _, o := range ph.ops {
		if o.err == nil {
			ratios = append(ratios, o.ratio)
			rates = append(rates, frac(o.evaluated, o.wall.Seconds()))
		}
	}
	return map[string]float64{
		"search_rate":  median(rates),
		"solve_s":      median(ph.walls()),
		"energy_ratio": median(ratios),
		"peak_heap_mb": float64(ph.peakHeap) / 1e6,
		"setup_s":      setupS,
	}
}

// tailPercentile is the highest of p99, p90 and p75 with at least ten
// samples beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, q := range []float64{99, 90, 75} {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 0
}

func reportEndToEnd(w io.Writer, ph phase, oc outcome) {
	walls := ph.walls()
	fmt.Fprintf(w, "%d operations in %.2f s: %d failed (failed_frac %.4f)\n",
		len(ph.ops), ph.wall.Seconds(), oc.Failed, frac(float64(oc.Failed), float64(len(ph.ops))))
	for _, o := range ph.ops {
		if o.err != nil {
			fmt.Fprintf(w, "  failed: %v\n", o.err)
		}
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "  %-14s %-14.6g %s\n", d.name, oc.Metrics[d.name].Value, d.unit)
	}
	if q := tailPercentile(len(walls)); q > 0 {
		fmt.Fprintf(w, "  time per operation: p50 %.4f s, p%.0f %.4f s (%d samples)\n",
			median(walls), q, percentile(walls, q), len(walls))
	} else {
		fmt.Fprintf(w, "  time per operation: p50 %.4f s, max %.4f s (%d samples, too few for a tail percentile)\n",
			median(walls), maxOf(walls), len(walls))
	}
}

// tracedRun splits the measuring time: three tenths untraced, three
// tenths traced (the same operations with spans), four tenths for the
// workload's service rung (serve jobs or cluster runs) and the layer
// ladder on the workload's instance.
func tracedRun(cfg runConfig, e *solveEnv, w io.Writer) (outcome, map[string]float64, error) {
	base := measurePhase(e, cfg.runSeed, cfg.measure*3/10, cfg.scale.minOps, nil)
	tr := newTracing()
	traced := measurePhase(e, cfg.runSeed, cfg.measure*3/10, cfg.scale.minOps, tr)
	callsPerOp := frac(float64(tr.calls), float64(len(traced.ops)))

	in := e.in
	m := map[string]float64{}
	budget := cfg.measure * 4 / 10
	start := time.Now()
	if err := workloads[cfg.workload].rung(cfg, in, tr, budget/4); err != nil {
		return outcome{}, nil, fmt.Errorf("service rung: %w", err)
	}
	if err := ladder(in.p, cfg.runSeed, max(budget-time.Since(start), budget/2), m); err != nil {
		return outcome{}, nil, fmt.Errorf("ladder: %w", err)
	}
	coreMetrics(tr, m)
	serviceMetrics(tr, m)
	// The tracing overhead is the cost of the tracing calls one traced
	// operation makes, timed directly, against an untraced operation's
	// wall: the phases' difference is too small to see in their noise.
	m["trace.overhead_frac"] = frac(callsPerOp*callNs(budget/40)/1e9, median(base.walls()))

	oc := outcome{
		Attempted: len(base.ops) + len(traced.ops),
		Failed:    base.failed() + traced.failed(),
		Metrics:   map[string]metric{},
	}
	oc.Correct = oc.Failed == 0
	for _, d := range layerMetrics {
		oc.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	extra := map[string]float64{}
	for _, d := range extraMetrics {
		if v, ok := m[d.name]; ok {
			extra[d.name] = v
		}
	}
	reportTraced(w, cfg, in.p, base, traced, callsPerOp, oc, tr, extra)
	return oc, extra, writeSpans(cfg, tr)
}

func coreMetrics(tr *tracing, m map[string]float64) {
	s, c := tr.samples, tr.counts
	m["core.new_engine_ms"] = median(s["core.new_engine_ms"])
	m["core.attach_ms"] = median(s["core.attach_ms"])
	m["core.pump_ms_p50"] = median(s["core.pump_ms"])
	m["core.pump_ms_max"] = maxOf(s["core.pump_ms"])
	m["core.pump_busy_frac"] = median(s["core.pump_busy_frac"])
	m["core.finish_ms"] = median(s["core.finish_ms"])
	m["core.published"] = median(s["core.published"])
	m["core.admit_frac"] = frac(c["core.inserted"], c["core.published"])
	m["core.dropped_frac"] = frac(c["core.dropped"], c["core.published"])
	m["core.quarantined"] = c["core.quarantined"]
	m["core.respawns"] = c["core.respawns"]
	m["core.device_share_min"] = minOf(s["core.device_share"])
	m["core.unit_share_min"] = minOf(s["core.unit_share"])
	m["core.kept_frac"] = frac(frac(c["core.flips"], c["core.wall_s"]), m["gpusim.flips_per_s"])
}

// serviceMetrics adds the serve and cluster metrics a traced run
// measured; layers the workload does not run stay absent.
func serviceMetrics(tr *tracing, m map[string]float64) {
	s, c := tr.samples, tr.counts
	for _, name := range []string{"serve.submit_ms", "serve.queue_ms", "serve.run_ms", "serve.settle_ms"} {
		if v, ok := s[name]; ok {
			m[name] = median(v)
		}
	}
	if _, ok := s["serve.submit_ms"]; ok {
		m["serve.rejected"] = c["serve.rejected"]
	}
	for _, rpc := range []string{"register", "lease", "publish", "heartbeat"} {
		if v, ok := s["cluster.rpc_"+rpc+"_ms"]; ok {
			m["cluster.rpc_"+rpc+"_ms_p50"] = median(v)
			m["cluster.rpc_"+rpc+"_ms_p90"] = percentile(v, 90)
		}
	}
	if c["cluster.rpc_calls"] > 0 {
		m["cluster.rpc_calls"] = c["cluster.rpc_calls"]
		m["cluster.rpc_errors"] = c["cluster.rpc_errors"]
		m["cluster.publish_bytes"] = c["cluster.publish_bytes"]
		// Evaluated solutions per second of a cluster run against a
		// single-node solve of the same budget (the core rung).
		m["cluster.kept_frac"] = frac(frac(c["cluster.evaluated"], c["cluster.wall_s"]),
			frac(c["core.evaluated"], c["core.wall_s"]))
	}
}

func reportTraced(w io.Writer, cfg runConfig, p *qubo.Problem, base, traced phase, callsPerOp float64, oc outcome, tr *tracing, extra map[string]float64) {
	fmt.Fprintf(w, "traced run on %s (n=%d): %d untraced + %d traced operations, %d failed\n",
		p.Name(), p.N(), len(base.ops), len(traced.ops), oc.Failed)
	b, t := endToEnd(base, 0), endToEnd(traced, 0)
	fmt.Fprintf(w, "end-to-end, untraced vs traced:\n")
	for _, name := range []string{"search_rate", "solve_s", "energy_ratio"} {
		fmt.Fprintf(w, "  %-14s %-14.6g %-14.6g %+.1f%%\n", name, b[name], t[name], 100*(frac(t[name], b[name])-1))
	}
	diff := frac(t["solve_s"], b["solve_s"]) - 1
	noise := max(iqrFrac(base.walls()), iqrFrac(traced.walls()))
	verdict := "outside"
	if math.Abs(diff) <= noise {
		verdict = "within"
	}
	fmt.Fprintf(w, "  solve_s differs by %+.1f%%, %s the phases' noise (IQR/median untraced %.3f, traced %.3f)\n",
		100*diff, verdict, iqrFrac(base.walls()), iqrFrac(traced.walls()))
	fmt.Fprintf(w, "  tracing calls per operation %.0f; timed directly they cost %.2g of an untraced operation (trace.overhead_frac)\n",
		callsPerOp, oc.Metrics["trace.overhead_frac"].Value)
	fmt.Fprintf(w, "per-layer:\n")
	for _, d := range layerMetrics {
		note := ""
		if strings.HasPrefix(d.name, "dkernel.") && qubo.AutoRep(p) == qubo.RepSparse {
			note = "  (the engine runs sparse here: no solve calls this layer)"
		}
		fmt.Fprintf(w, "  %-28s %-14.6g %-6s%s\n", d.name, oc.Metrics[d.name].Value, d.unit, note)
	}
	for _, d := range extraMetrics {
		if v, ok := extra[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %-14.6g %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "  %-28s n/a (layer not used by %s)\n", d.name, cfg.workload)
		}
	}
	byName, byLayer := summarize(tr.spans)
	fmt.Fprintf(w, "self time by layer (%d spans, %d dropped):\n", len(tr.spans), tr.dropped)
	for _, st := range byLayer {
		fmt.Fprintf(w, "  %-20s %8d spans %12.1f ms total %12.1f ms self\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
	fmt.Fprintf(w, "self time by span:\n")
	for _, st := range byName {
		fmt.Fprintf(w, "  %-20s %8d spans %12.1f ms total %12.1f ms self\n", st.Name, st.Count, ms(st.Total), ms(st.Self))
	}
}

// maxWrittenSpans bounds the span file; the report covers every span.
const maxWrittenSpans = 20_000

// writeSpans writes the traced run's spans, replacing the previous
// traced run's file for the same workload.
func writeSpans(cfg runConfig, tr *tracing) error {
	spans := tr.spans
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	return writeJSON(filepath.Join(cfg.out, "spans-"+cfg.workload+".json"), struct {
		Stamp   stamp  `json:"stamp"`
		Total   int    `json:"total"`
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{newStamp(cfg), len(tr.spans), tr.dropped, spans})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// heapSampler polls the live heap every millisecond and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}
