// Command kbench regenerates the paper's tables and figures.
//
// Usage:
//
//	kbench -list
//	kbench -experiment fig3-uniform
//	kbench -experiment all -runs 10 -mode sim
//	kbench -experiment fig3-exponential -mode real -tasks 50000
//	kbench -experiment fig4-overhead -csv
//	kbench -experiment sharding,faults -runs 1 -tasks 2000
//
// sharding (shared vs. per-worker STM) and faults (the serving stack under
// injected transport faults) run the real executor regardless of -mode;
// they are the two beyond-paper questions no BENCHMARK.json workload asks.
// Every other claim beyond the paper is measured by BENCHMARK.json's
// workloads (benchmark/README.md), not here.
//
// In sim mode (default) experiments run on the deterministic discrete-event
// model of the paper's 16-processor SunFire 6800 testbed, so the figure
// shapes reproduce on any host. In real mode the actual STM and executor run
// on host goroutines; scaling curves then require as many hardware threads
// as workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"kstm/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		experiment = fs.String("experiment", "", "experiment ID, or 'all'")
		mode       = fs.String("mode", "sim", "sim (testbed simulator) or real (host goroutines)")
		runs       = fs.Int("runs", 3, "repetitions per data point (paper uses 10)")
		threads    = fs.String("threads", "2,4,6,8,10,12,14,16", "comma-separated worker counts")
		cycles     = fs.Uint64("cycles", 0, "simulated cycles per run (0 = default 120M)")
		tasks      = fs.Int("tasks", 20000, "tasks per data point in real mode")
		seed       = fs.Uint64("seed", 1, "base PRNG seed")
		csv        = fs.Bool("csv", false, "emit CSV instead of text tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("Available experiments (see DESIGN.md §7 for the paper mapping):")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-22s %-38s [%s]\n", e.ID, e.Title, e.Paper)
		}
		fmt.Println("  all                    run everything")
		return nil
	}
	if *experiment == "" {
		fs.Usage()
		return fmt.Errorf("missing -experiment (or -list)")
	}

	opts := harness.DefaultOptions()
	opts.Runs = *runs
	opts.RealTasks = *tasks
	opts.Seed = *seed
	opts.DurationCycles = *cycles
	switch harness.Mode(*mode) {
	case harness.ModeSim, harness.ModeReal:
		opts.Mode = harness.Mode(*mode)
	default:
		return fmt.Errorf("unknown -mode %q (want sim or real)", *mode)
	}
	ts, err := parseThreads(*threads)
	if err != nil {
		return err
	}
	opts.Threads = ts

	var tables []*harness.Table
	if *experiment == "all" {
		tables, err = harness.RunAll(opts)
	} else {
		// -experiment accepts a comma-separated list (e.g. sharding,faults).
		for _, id := range strings.Split(*experiment, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			var e harness.Experiment
			e, err = harness.ByID(id)
			if err != nil {
				break
			}
			var ts []*harness.Table
			ts, err = e.Run(opts)
			if err != nil {
				break
			}
			tables = append(tables, ts...)
		}
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		if *csv {
			fmt.Printf("# %s — %s\n", t.ID, t.Title)
			t.RenderCSV(os.Stdout)
			fmt.Println()
		} else {
			t.Render(os.Stdout)
		}
	}
	return nil
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -threads list")
	}
	return out, nil
}
