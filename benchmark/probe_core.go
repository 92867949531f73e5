package main

import (
	"context"
	"time"

	"kstm"
	"kstm/internal/core"
	"kstm/internal/harness"
)

// probeCore times the dispatch policy's Pick once it has adapted, and one
// synchronous Submit on the now idle executor: a parked worker woken, an
// empty transaction run, the parked submitter woken — the in-process round trip that
// a loopback request pays twice over, plus the wire.
func probeCore(w *workload, st *stack, d time.Duration, inputs []kstm.Task, l *metricSet) {
	var sched core.Scheduler
	if w.traffic == trafficSplit {
		sched, _ = core.NewFixed(0, harness.ContentionCounters-1, st.ex.Workers())
	} else {
		ad, _ := core.NewAdaptive(0, kstm.MaxKey, st.ex.Workers(), core.WithThreshold(adaptThreshold))
		for i := 0; !ad.Adapted(); i++ {
			ad.Pick(inputs[i%len(inputs)].Key)
		}
		sched = ad
	}
	l.set("core.pick_ns_op", perOp(d, len(inputs), func() {
		for i := range inputs {
			sink += uint64(sched.Pick(inputs[i].Key))
		}
	}))

	ctx := context.Background()
	var rtt lathist
	for start, i := time.Now(), 0; time.Since(start) < d; i++ {
		t := inputs[i%len(inputs)]
		t.Op = kstm.OpNoop // an empty transaction: the round trip alone
		t0 := time.Now()
		if _, err := st.ex.Submit(ctx, t); err != nil {
			return
		}
		rtt.observe(time.Since(t0).Nanoseconds())
	}
	l.set("core.sync_rtt_ns_p50", rtt.quantile(0.50))
}
