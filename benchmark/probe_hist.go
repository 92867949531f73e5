package main

import (
	"time"

	"kstm"
	"kstm/internal/hist"
)

// probeHist times what one re-adaptation costs the dispatcher: a CDF and a
// PD-partition from a full sample window of the workload's keys.
func probeHist(w *workload, d time.Duration, inputs []kstm.Task, l *metricSet) {
	h := hist.NewHistogram(0, uint64(w.keys()-1), 256)
	for i := 0; i < adaptThreshold; i++ {
		h.Add(inputs[i%len(inputs)].Key)
	}
	l.set("hist.partition_build_us", perOp(d, 1, func() {
		cdf, err := hist.NewCDF(h)
		if err != nil {
			return
		}
		if p, err := hist.PDPartition(cdf, parallelism()); err == nil {
			sink += uint64(p.Workers())
		}
	})/1e3)
}
