package main

import (
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// shortConfig runs a workload end to end in a fraction of a second: every
// phase present, probes cut to a few milliseconds.
func shortConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, trace: traceBoth, warmup: 100 * time.Millisecond, measure: 200 * time.Millisecond,
		traced: 100 * time.Millisecond, probe: 5 * time.Millisecond, setups: 1, outDir: t.TempDir()}
}

// TestEveryWorkload runs each workload briefly and checks that it is
// correct, that it emits exactly the metrics BENCHMARK.json declares, that a
// layer off a workload's path reads zero there, and that the lot stays fast
// enough to ride along with the unit tests.
func TestEveryWorkload(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	start := time.Now()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		res, err := runWorkload(w, shortConfig(t))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for n, m := range res.Metrics {
			if unit, ok := declared[n]; !ok {
				t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", w.name, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, n, m.Unit, unit)
			}
			if !name.MatchString(n) {
				t.Errorf("metric name %q has characters outside letters, digits, _ . -", n)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.name, n, m.Value)
			}
		}
		for n := range declared {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %q, which the run did not emit", w.name, n)
			}
		}
		for _, m := range endToEnd {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
		// Layer separation: what is not on the path reads zero.
		for n, m := range res.Metrics {
			offPath := false
			switch {
			case strings.HasPrefix(n, "client."), strings.HasPrefix(n, "transport."),
				strings.HasPrefix(n, "server."), strings.HasPrefix(n, "wire."):
				offPath = !w.wire()
			case strings.HasPrefix(n, "core.migrate_"):
				offPath = w.traffic != trafficMigrate
			case strings.HasPrefix(n, "core.split_"):
				offPath = w.traffic != trafficSplit
			}
			if offPath && m.Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer not on this workload's path)", w.name, n, m.Value)
			}
		}
		if w.traffic == trafficMigrate && res.Metrics["core.migrate_epochs"].Value == 0 {
			t.Errorf("%s: no migration epoch ran", w.name)
		}
		if w.traffic == trafficSplit && res.Metrics["core.split_merged_epochs"].Value == 0 {
			t.Errorf("%s: no merge epoch ran", w.name)
		}
		if w.wire() && res.Metrics["transport.overhead_ns_p50"].Value == 0 {
			t.Errorf("%s: no transport span recorded", w.name)
		}
	}
	if d := time.Since(start); d > 20*time.Second && !raceEnabled {
		t.Errorf("six short workloads took %v, want a few seconds", d)
	}
}

// TestEndToEndImports pins the rule that the measured path uses the program
// the way a user does: outside the probes, the benchmark imports only the
// public packages, the harness constructors cmd/kstmd builds its executor
// from, the input generators and the statistics helper.
func TestEndToEndImports(t *testing.T) {
	allowed := map[string]bool{"kstm": true, "kstm/client": true, "kstm/server": true,
		"kstm/internal/harness": true, "kstm/internal/dist": true, "kstm/internal/rng": true,
		"kstm/internal/stats": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasPrefix(file, "probe_") || strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "kstm") && !allowed[path] {
				t.Errorf("%s imports %s; only probe_<layer>.go files may reach into a layer", file, path)
			}
		}
	}
}

// TestQuartiles checks the spread rule against Python's
// statistics.quantiles(values, n=4), which the repeatability criterion names.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; Python gives 1.5, 4.5", q1, q3)
	}
}

// TestLathist checks the recorder's error bound: a quantile is within 1% of
// the exact value across six decades.
func TestLathist(t *testing.T) {
	var h lathist
	var exact []int64
	for v := int64(50); v < 50_000_000; v += v/97 + 1 {
		h.observe(v)
		exact = append(exact, v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		want := float64(exact[int(q*float64(len(exact)-1))])
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
	var hundred lathist
	for v := int64(1); v <= 100; v++ {
		hundred.observe(v)
	}
	if got := hundred.beyond(0.99); got != 1 {
		t.Errorf("beyond(0.99) of 100 observations = %d, want 1", got)
	}
}
