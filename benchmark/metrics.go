package main

import "fmt"

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json declares exactly these names (the
// test compares the sets), every workload reports every one of them, and a
// per-layer metric whose layer is not on a workload's path reads 0 there.
type metricDef struct{ name, unit string }

// endToEnd are measured over the untraced window only.
var endToEnd = []metricDef{
	{"ops_s", "ops/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer come from three sources: span = the benchmark's own timing
// around a call, sampled 1 in 64 over the traced window; stat = the delta of
// a public Stats() snapshot across the untraced window; probe = the layer's
// exported function called in isolation on this workload's inputs.
var perLayer = []metricDef{
	// fail_ratio would be an end-to-end metric, but it is 0 on a healthy
	// run and a bound is a share of the parent's median; the run's
	// attempted/failed counts and exit code carry the gate instead.
	{"fail_ratio", "ratio"},

	{"client.send_ns_p50", "ns"}, // span: inside DoAsync
	{"client.send_ns_p99", "ns"},
	{"client.wait_ns_p50", "ns"}, // span: inside Call.Wait

	{"transport.overhead_ns_p50", "ns"}, // span: round trip - Result.Wait - Result.Exec
	{"transport.overhead_ns_p99", "ns"},
	{"transport.ctxsw_per_op", "count"}, // stat: getrusage voluntary+involuntary switches

	{"wire.encode_req_ns_op", "ns/op"}, // probes
	{"wire.decode_req_ns_op", "ns/op"},
	{"wire.encode_resp_ns_op", "ns/op"},
	{"wire.decode_resp_ns_op", "ns/op"},
	{"wire.batch64_encode_ns_op", "ns/op"},
	{"wire.batch64_decode_ns_op", "ns/op"},
	{"wire.req_bytes", "B"},
	{"wire.resp_bytes", "B"},

	{"server.requests", "count"}, // stat: server.Stats
	{"server.responses", "count"},
	{"server.busy_ratio", "ratio"},
	{"server.failed", "count"},
	{"server.deadline_shed", "count"},
	{"server.admit_rejected", "count"},
	{"server.protocol_errors", "count"},

	{"core.submit_ns_p50", "ns"}, // span: inside SubmitAsync
	{"core.submit_ns_p99", "ns"},
	{"core.return_ns_p50", "ns"},   // span: op - submit - wait - exec
	{"core.pick_ns_op", "ns/op"},   // probe: Scheduler.Pick, adapted
	{"core.sync_rtt_ns_p50", "ns"}, // probe: Submit on the idle executor

	{"core.queue_wait_ns_p50", "ns"}, // span: TaskResult.Wait / Result.Wait
	{"core.queue_wait_ns_p99", "ns"},
	{"core.exec_ns_p50", "ns"}, // span: TaskResult.Exec / Result.Exec
	{"core.exec_ns_p99", "ns"},
	{"core.load_imbalance", "ratio"}, // stat: ExecStats
	{"core.empty_polls_per_op", "count"},
	{"core.steals", "count"},
	{"core.rejected", "count"},
	{"core.cancelled", "count"},
	{"core.scheduler_epochs", "count"},

	{"core.migrate_epochs", "count"}, // stat: ExecStats.Migrations
	{"core.migrate_keys_moved", "count"},
	{"core.migrate_pause_ms", "ms"},

	{"core.split_keys", "count"}, // stat: ExecStats.Split
	{"core.split_merged_epochs", "count"},
	{"core.split_parked_tasks", "count"},
	{"core.split_merge_ms", "ms"},

	{"queue.put_get_ns_op", "ns/op"}, // probes
	{"queue.putall64_ns_op", "ns/op"},

	{"stm.commits", "count"}, // stat: ExecStats.STM
	{"stm.aborts_per_commit", "ratio"},
	{"stm.conflicts_per_commit", "ratio"},
	{"stm.validation_fails_per_commit", "ratio"},
	{"stm.retries_per_commit", "ratio"},
	{"stm.reads_per_commit", "ratio"},
	{"stm.writes_per_commit", "ratio"},
	{"stm.atomic_ro_ns_op", "ns/op"}, // probes
	{"stm.atomic_rw_ns_op", "ns/op"},

	{"txds.lookup_ns_op", "ns/op"}, // probes
	{"txds.insert_ns_op", "ns/op"},
	{"txds.delete_ns_op", "ns/op"},
	{"txds.counter_add_ns_op", "ns/op"},

	{"hist.partition_build_us", "us"}, // probe
	{"latency.observe_ns_op", "ns/op"},

	{"proc.cpu_util", "ratio"}, // stat: getrusage, runtime.MemStats
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.heap_mb", "MiB"},

	{"gen.offered_ops_s", "ops/s"}, // the benchmark itself
	{"gen.lag_p99_us", "us"},
	{"gen.backlog_end", "count"},
	{"trace.overhead_pct", "%"},
}

// metricValue is one reported number, in the shape the result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the values of one table, all present from the start so a
// layer that does not run on a workload still reports (0).
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.vals[d.name] = 0
	}
	return m
}

// set stores a value; an undeclared name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.vals[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared", name))
	}
	m.vals[name] = v
}

func (m *metricSet) get(name string) float64 { return m.vals[name] }

// into copies the set into the result line's metrics object.
func (m *metricSet) into(out map[string]metricValue) {
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.vals[d.name], Unit: d.unit}
	}
}

// print writes one "name value unit" row per metric, in table order.
func (m *metricSet) print(title string) {
	fmt.Printf("  %s\n", title)
	for _, d := range m.defs {
		fmt.Printf("    %-34s %16.4f %s\n", d.name, m.vals[d.name], d.unit)
	}
}

// ratio returns a/b, or 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
