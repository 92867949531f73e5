package main

import (
	"time"

	"kstm/internal/latency"
)

// probeLatency prices the program's own instrumentation: one Observe on the
// histogram every task pays twice (wait and service).
func probeLatency(d time.Duration, l *metricSet) {
	h := latency.New()
	const n = 1024
	l.set("latency.observe_ns_op", perOp(d, n, func() {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(1000 + i))
		}
	}))
	sink += h.Count()
}
