// Command benchmark is the repo's benchmark: six fixed-duration workloads,
// each measured end to end over an untraced window and layer by layer from
// outside — by timing its own calls into kstm, kstm/client, kstm/server and
// the exported functions of the internal packages, and by differencing the
// public Stats() snapshots. README.md has the catalogue; BENCHMARK.json, at
// the root of the repo, declares the names and the bounds.
//
//	bash benchmark/run.sh --workload wire-sync --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -seed 1 -runs 5 -out benchmark/out/set1.json
//	bash benchmark/run.sh -agree benchmark/out/set1.json benchmark/out/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// outDir receives trace files and, by default, result sets.
const outDir = "benchmark/out"

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 12, "length of the measured window")
	trace := fs.Int("trace", traceBoth, "0 = end-to-end metrics, 1 = per-layer metrics, 2 = both")
	out := fs.String("out", "", "write the full result (one workload) or the result set (all) to this file")
	runs := fs.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed, seed+1, ...; the set holds per-metric medians")
	agree := fs.Bool("agree", false, "compare two result sets against BENCHMARK.json's bounds: -agree a.json b.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case *agree:
		err = agreeSets(fs.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace, *out)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints every metric by name and
// unit, and ends standard output with the one-line result.
func runOne(name string, seed uint64, seconds float64, trace int, out string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, newRunConfig(w, seed, seconds, trace))
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res.print()
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: the correctness oracle found violations", name)
	}
	return nil
}

// hostFacts says where a result set was measured.
type hostFacts struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

func host() hostFacts {
	h := hostFacts{Commit: os.Getenv("BENCH_COMMIT"), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: parallelism(), GoVersion: runtime.Version(), Kernel: "unknown"}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		h.Kernel = b.String()
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
