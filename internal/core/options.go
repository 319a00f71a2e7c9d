// Package core implements the Adaptive Bulk Search framework: the
// asynchronous combination of a host-side genetic algorithm and
// device-side bulk local searches described in §3 of the paper.
//
// The host (§3.1) owns a sorted, distinct solution pool. Device blocks
// (§3.2) each own an incremental qubo.State (the Δ register file) and
// loop forever: read a target solution from the target buffer, straight-
// search to it (Algorithm 5), local-search around it (Algorithm 4 with
// the offset-window policy), publish the best-found solution to the
// solution buffer, reset, repeat. Host and devices communicate only
// through the gpusim global-memory buffers — no block ever waits for
// the host or for another block, which is the property that lets the
// paper run 4352 blocks with no synchronization overhead.
package core

import (
	"fmt"
	"io"
	"time"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/telemetry"
)

// Progress is the periodic run snapshot rendered by
// Options.ProgressWriter and reported live by a serve job's status.
type Progress struct {
	// Elapsed is the time since launch.
	Elapsed time.Duration
	// BestEnergy is the pool's best evaluated energy; BestKnown is
	// false while no device has reported yet.
	BestEnergy int64
	BestKnown  bool
	// Flips and Evaluated are cluster-wide counters so far.
	Flips, Evaluated uint64
	// Dropped and Quarantined surface degradation live: publications
	// lost to the bounded buffer and publications the ingest gate
	// refused (see the same-named Result fields).
	Dropped, Quarantined uint64
}

// String renders the standard one-line human-readable progress report
// (what abs-solve -v prints once per second).
func (p Progress) String() string {
	best := "n/a"
	if p.BestKnown {
		best = fmt.Sprintf("%d", p.BestEnergy)
	}
	rate := 0.0
	if s := p.Elapsed.Seconds(); s > 0 {
		rate = float64(p.Evaluated) / s
	}
	s := fmt.Sprintf("[%7.1fs] best %s, %d flips, %.3g sol/s",
		p.Elapsed.Seconds(), best, p.Flips, rate)
	if p.Dropped > 0 || p.Quarantined > 0 {
		s += fmt.Sprintf(" (%d dropped, %d quarantined)", p.Dropped, p.Quarantined)
	}
	return s
}

// Options configures a Solve run. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Device is the simulated GPU model; NumGPUs is the cluster size.
	Device  gpusim.DeviceSpec
	NumGPUs int

	// BitsPerThread is the p of §3.2. Zero selects the best
	// 100 %-occupancy configuration automatically, as the paper does.
	BitsPerThread int

	// GA configures the host genetic algorithm.
	GA ga.Config

	// LocalSteps is the fixed number of forced flips in each local-
	// search phase (§3.2 Step 4b) between target reads.
	LocalSteps int

	// WindowMin and WindowMax bound the offset-window length l assigned
	// to blocks. Block b receives a window interpolated between the two,
	// so the block population spans exploration temperatures in the
	// spirit of parallel tempering (§2.1). Zero values derive defaults
	// from the problem size.
	WindowMin, WindowMax int

	// Seed makes the host's target stream reproducible. Full runs are
	// still not bit-identical: blocks race asynchronously by design
	// (§3), so how many search rounds fit between target updates
	// depends on scheduling.
	Seed uint64

	// Stop conditions; at least one must be set.
	//
	// TargetEnergy stops the run once the pool's best energy is ≤ the
	// value ("time-to-solution" runs, §4.2).
	TargetEnergy *int64
	// MaxDuration stops the run after a wall-clock budget.
	MaxDuration time.Duration
	// MaxFlips stops the run after the cluster performs this many flips
	// in total (each flip evaluates n solutions).
	MaxFlips uint64

	// PollInterval is the host's Step 2 polling cadence. Zero means
	// 100 µs.
	PollInterval time.Duration

	// Tuning picks the engine representation, the solver backend and
	// the DABS pool admission spec (see Tuning). Unset fields resolve
	// here: storage by density — sparse below
	// qubo.DefaultSparseDensityThreshold (30 %, chosen from
	// BenchmarkFlipCrossover measurements), where the O(deg) flip
	// decisively beats the dense O(n) kernel — the straight backend
	// (the paper's algorithm) and admission off (the paper's plain
	// elite pool). Validate rejects unregistered backends with
	// ErrUnknownBackend.
	Tuning Tuning

	// Warm starts: vectors inserted into the solution pool before the
	// run, e.g. a 2-opt tour for a TSP instance. They enter with
	// unknown energy — the host never evaluates the energy function
	// (§3.1) — and become GA parents once blocks report energies for
	// the regions around them.
	WarmStarts []*bitvec.Vector

	// ProgressEvery is the progress cadence; zero means 1 s.
	ProgressEvery time.Duration

	// ProgressWriter, when non-nil, receives the standard one-line
	// progress report (Progress.String) every ProgressEvery. Ticks are
	// anchored to the launch time, so a slow callback or a loaded host
	// delays a line but does not stretch the schedule.
	ProgressWriter io.Writer

	// Telemetry, when non-nil, receives the run's full instrument
	// catalogue (see DESIGN.md §6): per-device flip counters and rates,
	// ingest accept/reject classes, pool admission traffic, supervisor
	// respawns/retirements, drain-batch and ingest-latency histograms.
	// Device blocks batch their counter updates once per round, so the
	// flip loop stays free of telemetry work. Registering the same
	// registry across several runs accumulates counters; use
	// telemetry.Snapshot.Sub to isolate one run.
	Telemetry *telemetry.Registry

	// Tracer, when non-nil, receives structured lifecycle events
	// (target/solution publishes, ingest verdicts, respawns,
	// retirements, pool admissions, injected faults). Attach a sink
	// for a JSONL dump, or scrape /trace on the telemetry endpoint.
	Tracer *telemetry.Tracer

	// Span, when valid, is the enclosing span context (a serve job's
	// run span, a cluster worker's root span). Every trace event the
	// run emits is stamped with it, so engine events land inside the
	// caller's causal timeline instead of floating free.
	Span telemetry.SpanContext

	// Adaptive lets every block reschedule its own window length when
	// it stagnates (double on AdaptivePatience stagnant rounds, wrap to
	// WindowMin past WindowMax) — the paper's future-work direction of
	// automatically changing per-block search behaviour (§5). When
	// false, blocks keep the static ladder of §2.1.
	Adaptive bool
	// AdaptivePatience is the stagnant-round threshold; zero means 8.
	AdaptivePatience int

	// Faults, when non-nil, injects simulated block failures (crashes,
	// stalls, corrupted publications) according to the plan — the test
	// hook for the fault-tolerance layer. Production runs leave it nil.
	Faults *gpusim.FaultPlan

	// DisableSupervisor turns off heartbeat-based block supervision.
	// With supervision on (the default), the host loop detects blocks
	// that have made no progress for SupervisorGrace and respawns them
	// with a fresh engine and a new target; blocks on a device the
	// fault plan has marked failed are retired instead, and their
	// target slots redistributed over the survivors.
	DisableSupervisor bool
	// SupervisorGrace is how long a block may go without a progress
	// heartbeat before the supervisor declares it dead or stalled.
	// Zero means 2 s — generously above a healthy round even for large
	// instances on oversubscribed hosts; a false positive only costs
	// the superseded incarnation's in-flight round.
	SupervisorGrace time.Duration

	// TrustPublications recovers the paper's pure §3.1 ingest protocol:
	// the host inserts device energies as claimed, never evaluating the
	// energy function itself. By default (false) the host re-evaluates
	// each publication's energy and quarantines mismatches — a
	// documented deviation from the paper (see DESIGN.md "Fault model &
	// substitutions") that keeps a corrupted worker from poisoning the
	// GA pool. Structural checks (vector width, block indices) are
	// always enforced.
	TrustPublications bool

	// SolutionBufferCap bounds the device→host publication buffer: a
	// drain-starved host drops the oldest pending publications instead
	// of growing without limit (Result.Dropped counts them). Zero means
	// 4 × the block count (at least 1024); negative means unbounded.
	SolutionBufferCap int
}

// DefaultOptions returns options sized for solving on a CPU host: a
// small virtual cluster (one device with a few SMs keeps per-flip
// throughput high while preserving search diversity), automatic block
// shape, and the default GA mix. Callers must still set a stop
// condition.
func DefaultOptions() Options {
	return Options{
		Device:     gpusim.ScaledCPU(2),
		NumGPUs:    1,
		GA:         ga.DefaultConfig(),
		LocalSteps: 512,
		Seed:       1,
	}
}

// PaperOptions returns options that reconstruct the paper's hardware
// shape — four RTX 2080 Ti with full occupancy — for throughput
// experiments where the block population matters more than per-block
// speed.
func PaperOptions() Options {
	o := DefaultOptions()
	o.Device = gpusim.TuringRTX2080Ti()
	o.NumGPUs = 4
	return o
}

// Validate reports whether the options are viable for an n-bit
// instance, applying the same defaulting and checks a Solve run would.
// Schedulers use it to reject a bad job at submission time, before any
// run state is built.
func (o Options) Validate(n int) error {
	_, err := o.normalize(n)
	return err
}

// normalize fills derived defaults and validates; it returns the final
// options.
func (o Options) normalize(n int) (Options, error) {
	if o.NumGPUs <= 0 {
		return o, fmt.Errorf("core: NumGPUs must be positive, got %d", o.NumGPUs)
	}
	if o.LocalSteps <= 0 {
		return o, fmt.Errorf("core: LocalSteps must be positive, got %d", o.LocalSteps)
	}
	if err := o.GA.Validate(); err != nil {
		return o, err
	}
	if o.TargetEnergy == nil && o.MaxDuration == 0 && o.MaxFlips == 0 {
		return o, fmt.Errorf("core: no stop condition set (TargetEnergy, MaxDuration or MaxFlips)")
	}
	if err := o.Tuning.Validate(); err != nil {
		return o, err
	}
	o.Tuning.Diversity, _ = o.Tuning.Diversity.Normalize() // validated above
	if o.BitsPerThread == 0 {
		p, err := o.Device.BestBitsPerThread(n)
		if err != nil {
			return o, err
		}
		o.BitsPerThread = p
	}
	if o.WindowMin == 0 {
		o.WindowMin = 4
	}
	if o.WindowMax == 0 {
		o.WindowMax = n / 4
		if o.WindowMax < o.WindowMin {
			o.WindowMax = o.WindowMin
		}
	}
	if o.WindowMin < 1 || o.WindowMax < o.WindowMin {
		return o, fmt.Errorf("core: invalid window range [%d, %d]", o.WindowMin, o.WindowMax)
	}
	if o.PollInterval == 0 {
		o.PollInterval = 100 * time.Microsecond
	}
	if o.AdaptivePatience == 0 {
		o.AdaptivePatience = 8
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = time.Second
	}
	if o.SupervisorGrace == 0 {
		o.SupervisorGrace = 2 * time.Second
	}
	if o.SupervisorGrace < 0 {
		return o, fmt.Errorf("core: SupervisorGrace %v must be positive", o.SupervisorGrace)
	}
	for i, ws := range o.WarmStarts {
		if ws == nil || ws.Len() != n {
			return o, fmt.Errorf("core: warm start %d is nil or has wrong length", i)
		}
	}
	if o.AdaptivePatience < 1 {
		return o, fmt.Errorf("core: AdaptivePatience %d must be positive", o.AdaptivePatience)
	}
	if !o.Device.FitsGlobalMemory(n) {
		return o, fmt.Errorf("core: %d-bit instance does not fit %s global memory", n, o.Device.Name)
	}
	return o, nil
}
