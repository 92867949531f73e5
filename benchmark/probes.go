package main

import (
	"time"

	"kstm"
)

// sink keeps the compiler from discarding a probe's work.
var sink uint64

// perOp calls fn, which performs n operations per call, until d has passed,
// and returns nanoseconds per operation. Probes run on one goroutine after
// the load has stopped, so nothing else competes for the processor.
func perOp(d time.Duration, n int, fn func()) float64 {
	start := time.Now()
	calls := 0
	for {
		fn()
		calls++
		if elapsed := time.Since(start); elapsed >= d {
			return float64(elapsed.Nanoseconds()) / float64(calls*n)
		}
	}
}

// runProbes measures each layer on this workload's path in isolation, on
// the workload's own recorded inputs. Each layer's probe lives in its own
// probe_<layer>.go, so removing an exported function breaks one small file.
func runProbes(w *workload, st *stack, inputs []kstm.Task, d time.Duration, res *result) {
	l := res.layer
	if w.wire() {
		probeWire(d, inputs, l)
	}
	probeCore(w, st, d, inputs, l)
	probeQueue(d, inputs, l)
	probeSTM(d, l)
	probeTxds(w, st, d, inputs, l, res)
	probeHist(w, d, inputs, l)
	probeLatency(d, l)
}
