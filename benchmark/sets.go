package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"kstm/internal/stats"
)

// metricSummary is one metric over a set's runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadSummary is one workload over a set's runs.
type workloadSummary struct {
	Correct bool                     `json:"correct"`
	Valid   bool                     `json:"valid"`
	Invalid []string                 `json:"invalid_reasons,omitempty"`
	Metrics map[string]metricSummary `json:"metrics"`
	Runs    []*result                `json:"runs"`
}

// resultSet is what the all-workloads mode writes and -agree reads.
type resultSet struct {
	Host      hostFacts                   `json:"host"`
	Seed      uint64                      `json:"seed"`
	Runs      int                         `json:"runs"`
	Seconds   float64                     `json:"seconds"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is how
// the repeatability criterion is stated.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// runAll runs every workload, each in a fresh child process so no workload
// inherits another's heap, scheduler state or sockets, runs times over, and
// writes the per-metric medians as a result set.
func runAll(seed uint64, seconds float64, runs int, out string) error {
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Host: host(), Seed: seed, Runs: runs, Seconds: seconds,
		Workloads: map[string]*workloadSummary{}}
	failed := false
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			path := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", w.name, r))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceBoth), "-out", path)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", w.name, r, err)
				failed = true
			}
			res := &result{}
			if err := readJSON(path, res); err != nil {
				return err
			}
			sum := set.Workloads[w.name]
			if sum == nil {
				sum = &workloadSummary{Correct: true, Valid: true, Metrics: map[string]metricSummary{}}
				set.Workloads[w.name] = sum
			}
			sum.Correct = sum.Correct && res.Correct
			sum.Valid = sum.Valid && res.Valid
			sum.Invalid = append(sum.Invalid, res.Invalid...)
			sum.Runs = append(sum.Runs, res)
		}
	}
	for _, sum := range set.Workloads {
		for name, first := range sum.Runs[0].Metrics {
			m := metricSummary{Unit: first.Unit}
			for _, res := range sum.Runs {
				m.Values = append(m.Values, res.Metrics[name].Value)
			}
			m.Median = stats.Summarize(m.Values).Median
			m.Q1, m.Q3 = quartiles(m.Values)
			sum.Metrics[name] = m
		}
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	fmt.Printf("result set of %d run(s) per workload written to %s\n", runs, out)
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// benchmarkSpec is the part of BENCHMARK.json -agree needs.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// readSpec finds BENCHMARK.json from the checkout root or from benchmark/.
func readSpec() (*benchmarkSpec, error) {
	spec := &benchmarkSpec{}
	err := readJSON("BENCHMARK.json", spec)
	if os.IsNotExist(err) {
		err = readJSON(filepath.Join("..", "BENCHMARK.json"), spec)
	}
	return spec, err
}

// agreeSets is the repeatability check: two result sets of the same code on
// the same host must agree, on every end-to-end metric of every workload,
// within the bound BENCHMARK.json puts on that metric. It prints one row per
// workload and metric, the difference as a share of the first set's median.
func agreeSets(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-agree wants two result sets, got %d", len(paths))
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	var a, b resultSet
	if err := readJSON(paths[0], &a); err != nil {
		return err
	}
	if err := readJSON(paths[1], &b); err != nil {
		return err
	}
	fmt.Printf("%-16s %-14s %14s %14s %8s %7s\n", "workload", "metric", "median a", "median b", "diff", "bound")
	disagree := 0
	for _, w := range spec.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from a set", w.Name)
		}
		for _, m := range spec.EndToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from a set", w.Name, m.Name)
			}
			diff := ratio(mb.Median-ma.Median, ma.Median)
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %+7.1f%% %6.1f%%%s\n",
				w.Name, m.Name, ma.Median, mb.Median, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d workload/metric pairs differ by more than their bound", disagree)
	}
	return nil
}
