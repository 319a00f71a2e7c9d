package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"abs/internal/core"
)

// incomparable says why two results must not be compared, or returns ""
// when they may be: a different kernel or CPU count moves every number,
// and different workloads or instances measure different things.
func incomparable(a, b stamp) string {
	switch {
	case a.Kernel != b.Kernel || a.Accelerated != b.Accelerated:
		return fmt.Sprintf("kernel %s (accelerated=%v) vs %s (accelerated=%v)", a.Kernel, a.Accelerated, b.Kernel, b.Accelerated)
	case a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("num_cpu/gomaxprocs %d/%d vs %d/%d", a.NumCPU, a.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS)
	case a.Workload != b.Workload || a.Trace != b.Trace || a.InstanceSeed != b.InstanceSeed:
		return fmt.Sprintf("different runs: %s vs %s", a, b)
	}
	return ""
}

// compareCmd prints two result files' metrics side by side.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare <result-a.json> <result-b.json>")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &rs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	if why := incomparable(rs[0].Stamp, rs[1].Stamp); why != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %s\n", why)
		return 3
	}
	names := make([]string, 0, len(rs[0].Outcome.Metrics))
	for name := range rs[0].Outcome.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-24s %14s %14s %9s\n", "metric", "a", "b", "b/a-1")
	for _, name := range names {
		a, b := rs[0].Outcome.Metrics[name], rs[1].Outcome.Metrics[name]
		fmt.Fprintf(stdout, "%-24s %14.6g %14.6g %+8.2f%% %s\n", name, a.Value, b.Value, 100*(frac(b.Value, a.Value)-1), a.Unit)
	}
	return 0
}

// calibrationMult is the reference solve's flip budget as a multiple of
// one benchmark operation's.
const calibrationMult = 40

// calibrateCmd prints a fresh reference.json: for every instance of
// every scale, at both instance seeds, the best energy of one long solve
// with default options and a fixed seed. Redirect it into
// perfbench/reference.json.
func calibrateCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "usage: perfbench calibrate > perfbench/reference.json")
		return 2
	}
	ref := referenceFile{
		Method: fmt.Sprintf("best energy of one core.Solve per instance: default options, Seed 1, "+
			"MaxFlips = %d x the flips of one benchmark operation on it", calibrationMult),
		Energies: map[string]int64{},
	}
	for _, name := range []string{"tiny", "full"} {
		for _, seed := range []uint64{DefaultInstanceSeed, HeldOutInstanceSeed} {
			insts, err := allInstances(scales[name], seed)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			for _, in := range insts {
				opt := core.DefaultOptions()
				opt.Seed = 1
				opt.MaxFlips = in.flips * calibrationMult
				start := time.Now()
				res, err := core.Solve(in.p, opt)
				if err == nil {
					err = checkSolution(in.p, res.Best, res.BestEnergy)
				}
				if err != nil {
					fmt.Fprintf(stderr, "perfbench: %s: %v\n", in.p.Name(), err)
					return 1
				}
				ref.Energies[in.p.Name()] = res.BestEnergy
				fmt.Fprintf(stderr, "%-28s %14d  (%.1f s)\n", in.p.Name(), res.BestEnergy, time.Since(start).Seconds())
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ref); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
