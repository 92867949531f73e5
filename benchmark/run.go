package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kstm"
	"kstm/internal/stats"
)

// Trace modes (-trace). The driver's contract asks for one family of
// metrics per run; the all-workloads runner takes both from one process.
const (
	traceOff  = 0 // untraced window only: end-to-end metrics
	traceOnly = 1 // half-length untraced window, traced window, probes: per-layer metrics
	traceBoth = 2 // full untraced window, traced window, probes: every metric
)

// Run-validity limits: over them the generator, not the program, shaped the
// numbers, and the run is reported invalid rather than slow. The lag limit
// is about twice the p99 lag seen at the frozen rate on the build host: the
// sender's timer rides the runtime's netpoller, which wakes it 19 µs late at
// the median and 100 µs at p99 on an idle process and later while every P is
// busy (README, "The open loop's rate").
const (
	maxLagP99us    = 2000.0
	maxBacklogSecs = 0.01 // of the offered rate
	maxTracePct    = 10.0
)

// runConfig fixes one run's shape; only tests shorten it.
type runConfig struct {
	seed    uint64
	trace   int
	warmup  time.Duration // discarded
	measure time.Duration // untraced window
	traced  time.Duration // 0 without a traced window
	probe   time.Duration // per probe
	// setups is how many times the stack is built; setup_s is the median.
	setups int
	// outDir receives the trace file.
	outDir string
}

// newRunConfig derives the run shape from the contract's three arguments.
// Duration is a constant of the benchmark: 2 s warm-up, then -seconds
// measured; a traced window of a third of that follows when asked for. A
// per-layer-only run halves the untraced window — its stat deltas are
// ratios and its end-to-end numbers are not reported — to fit the traced
// window and the probes into the same wall time.
func newRunConfig(w *workload, seed uint64, seconds float64, trace int) runConfig {
	d := time.Duration(seconds * float64(time.Second))
	cfg := runConfig{seed: seed, trace: trace, warmup: 2 * time.Second, measure: d,
		probe: 150 * time.Millisecond, setups: w.setups, outDir: outDir}
	switch trace {
	case traceOnly:
		cfg.measure, cfg.traced = d/2, d/3
	case traceBoth:
		cfg.traced = d / 3
	}
	return cfg
}

// spanShare is one row of the traced run's attribution table: a span's
// self-time median and its share of the root op's median.
type spanShare struct {
	Span    string  `json:"span"`
	SelfP50 float64 `json:"self_ns_p50"`
	Share   float64 `json:"share_of_op_p50"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Valid     bool                   `json:"valid"`
	Invalid   []string               `json:"invalid_reasons,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples gives the counts behind the percentiles.
	Samples map[string]uint64 `json:"samples"`
	// Slices gives each end-to-end metric's value in every one-second slice
	// of the untraced window; the reported value is their good-side quartile.
	Slices map[string][]float64 `json:"slice_values,omitempty"`
	// PhaseSeconds gives each phase's wall time.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	// Spans attributes the traced window's root op to its children.
	Spans []spanShare `json:"spans,omitempty"`
	// Notes carries derived comparisons worth printing beside the metrics.
	Notes []string `json:"notes,omitempty"`

	e2e, layer *metricSet
	// untracedOpsS is the untraced window's plain rate (all answers ÷ all
	// seconds), the base the traced window's rate is compared with.
	untracedOpsS float64
}

// parallelism is the benchmark's pinned N: workers, submitters and
// connections all equal it.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// timeSetup builds the stack cfg.setups times, keeps the last one, and
// returns the median build time. The count is fixed and a collection runs
// before every build, so each starts from the same heap and the garbage the
// repeats leave behind (which peak_rss_mb sees) is the same in every run.
func timeSetup(w *workload, n int, cfg runConfig) (*stack, float64, error) {
	times := make([]float64, 0, cfg.setups)
	for {
		runtime.GC()
		t0 := time.Now()
		st, err := setup(w, n, cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= cfg.setups {
			return st, stats.Summarize(times).Median, nil
		}
		if err := st.close(); err != nil {
			return nil, 0, fmt.Errorf("tear down: %w", err)
		}
	}
}

// runWorkload runs one workload once and reports it.
func runWorkload(w *workload, cfg runConfig) (*result, error) {
	n := parallelism()
	runtime.GOMAXPROCS(n)
	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metricValue{}, Samples: map[string]uint64{}, PhaseSeconds: map[string]float64{},
		e2e: newMetricSet(endToEnd), layer: newMetricSet(perLayer)}

	t0 := time.Now()
	st, setupSecs, err := timeSetup(w, n, cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.PhaseSeconds["setup_all"] = time.Since(t0).Seconds()
	res.e2e.set("setup_s", setupSecs)

	load, err := runLoad(w, st, n, cfg.seed, cfg)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	t0 = time.Now()
	violations, err := verify(w, st, load.subs)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("read back: %w", err)
	}
	res.PhaseSeconds["verify"] = time.Since(t0).Seconds()

	res.windowMetrics(w, load)
	for _, s := range load.subs {
		violations += s.src.wrong
		res.Failed += s.unanswered
	}
	res.Failed += violations
	res.Correct = violations == 0
	res.layer.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))

	if cfg.traced > 0 {
		res.spanMetrics(w, load)
		if err := writeTrace(cfg.outDir, w, load.subs); err != nil {
			st.close()
			return nil, err
		}
		t0 = time.Now()
		inputs, err := recordedInputs(w, cfg.seed)
		if err != nil {
			st.close()
			return nil, err
		}
		runProbes(w, st, inputs, cfg.probe, res)
		res.PhaseSeconds["probes"] = time.Since(t0).Seconds()
		if w.load == loadSync {
			// The headline gap, by number: both round trips are window 1.
			rtt, base := res.Spans[0].SelfP50, res.layer.get("core.sync_rtt_ns_p50")
			res.Notes = append(res.Notes, fmt.Sprintf(
				"loopback round trip p50 %.0f ns is %.1f x the in-process Submit round trip p50 %.0f ns (core.sync_rtt_ns_p50, the base); the table above splits the loopback one",
				rtt, ratio(rtt, base), base))
		}
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	res.judge(w)

	if cfg.trace != traceOnly {
		res.e2e.into(res.Metrics)
	}
	if cfg.trace != traceOff {
		res.layer.into(res.Metrics)
	}
	return res, nil
}

// recordedInputs replays the first tasks submitter 0 generated: the probes
// run each layer on the workload's own inputs.
func recordedInputs(w *workload, seed uint64) ([]kstm.Task, error) {
	src, err := newSource(w, seed, 0)
	if err != nil {
		return nil, err
	}
	tasks := make([]kstm.Task, 4096)
	for i := range tasks {
		tasks[i], _ = src.next(float64(i) / float64(len(tasks)))
	}
	return tasks, nil
}

// verify is the correctness oracle, run after the load has stopped and
// through the same path the load used: per dictionary key, acknowledged
// inserts minus acknowledged deletes (plus the prefill) must equal the final
// membership; per counter, the final sum must equal the acknowledged adds.
// It returns the number of keys that disagree.
func verify(w *workload, st *stack, subs []*submitter) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := st.readBack(ctx, w.keys())
	if err != nil {
		return 0, err
	}
	var bad uint64
	if w.traffic == trafficSplit {
		for k, v := range got {
			var adds int64
			for _, s := range subs {
				adds += s.src.adds[k]
			}
			if sum, ok := v.(int64); !ok || sum != adds {
				bad++
			}
		}
		return bad, nil
	}
	want := make([]int32, w.keys())
	for _, k := range st.prefilled {
		want[k]++
	}
	for _, s := range subs {
		for k, d := range s.src.net {
			want[k] += d
		}
	}
	for k, v := range got {
		present, ok := v.(bool)
		if !ok || (want[k] != 0 && want[k] != 1) || present != (want[k] == 1) {
			bad++
		}
	}
	return bad, nil
}

// windowMetrics computes the end-to-end metrics and the stat-sourced layer
// metrics from the untraced window. Each end-to-end metric is computed per
// one-second slice and reported as the quartile over slices on the metric's
// good side — the upper one for ops_s, the lower one for the rest: whatever
// reaches in from outside the process (a neighbour on the host, a stolen
// CPU) only ever makes a slice worse, so the better slices say more about
// the commit. On the build host this repeats closer than the median over
// slices does (README, "Measured spreads"). The layer metrics are totals or
// ratios over the whole window.
func (res *result) windowMetrics(w *workload, load *loadResult) {
	a, b := &load.warmEnd, &load.measureEnd
	secs := float64(b.at-a.at) / 1e9
	res.PhaseSeconds["warmup"] = float64(a.at) / 1e9
	res.PhaseSeconds["measure"] = secs

	var window uint64 // answered correctly within the untraced window
	var all, lag lathist
	var opsS, p50, p99, cpuPerOp, allocsPerOp []float64
	for k := 0; k+1 < len(load.slices); k++ {
		from, to := &load.slices[k], &load.slices[k+1]
		var lat lathist
		var ok uint64
		for _, s := range load.subs {
			rec := s.rec[k+1]
			lat.merge(&rec.lat)
			lag.merge(&rec.lag)
			ok += rec.ok
		}
		all.merge(&lat)
		window += ok
		opsS = append(opsS, float64(ok)/(float64(to.at-from.at)/1e9))
		p50 = append(p50, lat.quantile(0.50)/1e3)
		p99 = append(p99, lat.quantile(0.99)/1e3)
		cpuPerOp = append(cpuPerOp, ratio((to.cpu-from.cpu)*1e6, float64(ok)))
		allocsPerOp = append(allocsPerOp, ratio(float64(to.mallocs-from.mallocs), float64(ok)))
	}
	for _, s := range load.subs {
		// Attempted and failed count every tick: a refusal during the
		// warm-up is as wrong as one inside the window.
		for _, rec := range s.rec {
			res.Attempted += rec.ok + rec.failed + rec.refused
			res.Failed += rec.failed + rec.refused
		}
	}
	ops := float64(window)
	res.untracedOpsS = ops / secs
	res.Samples["slices"] = uint64(len(opsS))
	res.Samples["lat"] = all.n
	res.Samples["lat_beyond_p99"] = all.beyond(0.99)
	res.Samples["lat_beyond_p99_per_slice"] = all.beyond(0.99) / uint64(len(opsS))

	cpu := b.cpu - a.cpu
	res.Slices = map[string][]float64{"ops_s": opsS, "lat_p50_us": p50, "lat_p99_us": p99,
		"cpu_us_per_op": cpuPerOp, "allocs_per_op": allocsPerOp}
	for name, values := range res.Slices {
		q1, q3 := quartiles(values)
		if name == "ops_s" {
			res.e2e.set(name, q3)
		} else {
			res.e2e.set(name, q1)
		}
	}
	res.e2e.set("peak_rss_mb", float64(b.ru.Maxrss)/1024)

	l := res.layer
	ex := func(f func(*kstm.ExecStats) uint64) float64 { return float64(f(&b.ex) - f(&a.ex)) }
	completed := ex(func(s *kstm.ExecStats) uint64 { return s.Completed })
	var worst float64
	for i := range b.ex.PerWorker {
		worst = max(worst, float64(b.ex.PerWorker[i]-a.ex.PerWorker[i]))
	}
	l.set("core.load_imbalance", ratio(worst*float64(len(b.ex.PerWorker)), completed))
	l.set("core.empty_polls_per_op", ratio(ex(func(s *kstm.ExecStats) uint64 { return s.EmptyPolls }), completed))
	l.set("core.steals", ex(func(s *kstm.ExecStats) uint64 { return s.Steals }))
	l.set("core.rejected", ex(func(s *kstm.ExecStats) uint64 { return s.Rejected }))
	l.set("core.cancelled", ex(func(s *kstm.ExecStats) uint64 { return s.Cancelled }))
	l.set("core.scheduler_epochs", ex(func(s *kstm.ExecStats) uint64 { return s.SchedulerEpochs }))
	l.set("core.migrate_epochs", ex(func(s *kstm.ExecStats) uint64 { return s.Migrations.Epochs }))
	l.set("core.migrate_keys_moved", ex(func(s *kstm.ExecStats) uint64 { return s.Migrations.KeysMoved }))
	l.set("core.migrate_pause_ms", ex(func(s *kstm.ExecStats) uint64 { return s.Migrations.PauseNs })/1e6)
	l.set("core.split_keys", float64(b.ex.Split.Keys))
	l.set("core.split_merged_epochs", ex(func(s *kstm.ExecStats) uint64 { return s.Split.MergedEpochs }))
	l.set("core.split_parked_tasks", ex(func(s *kstm.ExecStats) uint64 { return s.Split.ParkedTasks }))
	l.set("core.split_merge_ms", ex(func(s *kstm.ExecStats) uint64 { return s.Split.MergeNs })/1e6)

	tm := b.ex.STM.Sub(a.ex.STM)
	commits := float64(tm.Commits)
	l.set("stm.commits", commits)
	l.set("stm.aborts_per_commit", ratio(float64(tm.Aborts()), commits))
	l.set("stm.conflicts_per_commit", ratio(float64(tm.Conflicts), commits))
	l.set("stm.validation_fails_per_commit", ratio(float64(tm.ValidationFails), commits))
	l.set("stm.retries_per_commit", ratio(float64(tm.Retries), commits))
	l.set("stm.reads_per_commit", ratio(float64(tm.Reads), commits))
	l.set("stm.writes_per_commit", ratio(float64(tm.Writes), commits))

	if w.wire() {
		requests := float64(b.srv.Requests - a.srv.Requests)
		l.set("server.requests", requests)
		l.set("server.responses", float64(b.srv.Responses-a.srv.Responses))
		l.set("server.busy_ratio", ratio(float64(b.srv.Busy-a.srv.Busy), requests))
		l.set("server.failed", float64(b.srv.Failed-a.srv.Failed))
		l.set("server.deadline_shed", float64(b.srv.Deadline-a.srv.Deadline))
		l.set("server.admit_rejected", float64(b.srv.AdmitRejected-a.srv.AdmitRejected))
		l.set("server.protocol_errors", float64(b.srv.ProtocolErrors-a.srv.ProtocolErrors))
		switches := (b.ru.Nvcsw + b.ru.Nivcsw) - (a.ru.Nvcsw + a.ru.Nivcsw)
		l.set("transport.ctxsw_per_op", ratio(float64(switches), ops))
	}

	l.set("proc.cpu_util", ratio(cpu, secs*float64(runtime.GOMAXPROCS(0))))
	l.set("proc.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	l.set("proc.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	l.set("proc.heap_mb", float64(b.mem.HeapInuse)/(1<<20))

	l.set("gen.offered_ops_s", float64(b.sent-a.sent)/secs)
	l.set("gen.lag_p99_us", lag.quantile(0.99)/1e3)
	l.set("gen.backlog_end", float64(b.sent-b.done))
}

// judge marks the run invalid when the benchmark itself got in the way.
func (res *result) judge(w *workload) {
	if w.load == loadPaced {
		if v := res.layer.get("gen.lag_p99_us"); v > maxLagP99us {
			res.Invalid = append(res.Invalid, fmt.Sprintf("gen.lag_p99_us %.0f over %.0f: the generator ran late", v, maxLagP99us))
		}
		if v, limit := res.layer.get("gen.backlog_end"), res.layer.get("gen.offered_ops_s")*maxBacklogSecs; v > limit {
			res.Invalid = append(res.Invalid, fmt.Sprintf("gen.backlog_end %.0f over %.0f: the backlog grew", v, limit))
		}
	}
	if v := res.layer.get("trace.overhead_pct"); v > maxTracePct {
		res.Invalid = append(res.Invalid, fmt.Sprintf("trace.overhead_pct %.1f over %.0f", v, maxTracePct))
	}
	res.Valid = len(res.Invalid) == 0
}

// print writes the human-readable report: every metric by name and unit.
func (res *result) print() {
	verdict := "valid"
	if !res.Valid {
		verdict = fmt.Sprintf("INVALID %v", res.Invalid)
	}
	fmt.Printf("%s seed=%d trace=%d correct=%v attempted=%d failed=%d %s\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed, verdict)
	if res.Trace != traceOnly {
		res.e2e.print(fmt.Sprintf("end to end (good-side quartile over %d one-second slices of the untraced window; %d latency samples, %d beyond p99 per slice)",
			res.Samples["slices"], res.Samples["lat"], res.Samples["lat_beyond_p99_per_slice"]))
	}
	if res.Trace != traceOff {
		res.layer.print("per layer")
		fmt.Printf("  traced window: span self time p50 and share of the root op p50 (%d sampled requests)\n", res.Samples["spans"])
		for _, s := range res.Spans {
			fmt.Printf("    %-34s %16.0f ns %6.1f%% of op\n", s.Span, s.SelfP50, 100*s.Share)
		}
	}
	for _, note := range res.Notes {
		fmt.Printf("  note: %s\n", note)
	}
}
