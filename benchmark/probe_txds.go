package main

import (
	"fmt"
	"time"

	"kstm"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// probeTxds times the workload's data structure at its fill level on one
// stm.Thread with no executor: per chunk of recorded keys, insert them all,
// look them all up (hits), delete them all. For the tree it prints the
// op-mix-weighted sum beside the executor's own core.exec_ns_p50, so a
// disagreement between the two is visible.
func probeTxds(w *workload, st *stack, d time.Duration, inputs []kstm.Task, l *metricSet, res *result) {
	th := stm.New().NewThread()
	switch s := w.newStructure().(type) {
	case *txds.Counters:
		l.set("txds.counter_add_ns_op", perOp(d, len(inputs), func() {
			for i := range inputs {
				_ = s.Add(th, uint32(inputs[i].Key), 1) // keys are in range by construction
			}
		}))
	case txds.IntSet:
		for _, k := range st.prefilled {
			_, _ = s.Insert(th, k)
		}
		const chunk = 256
		var ns [3]time.Duration // insert, lookup, delete
		var ops int
		for lo := 0; ns[0]+ns[1]+ns[2] < 3*d; lo = (lo + chunk) % len(inputs) {
			keys := inputs[lo : lo+chunk]
			for phase, op := range []func(*stm.Thread, uint32) (bool, error){s.Insert, s.Contains, s.Delete} {
				t0 := time.Now()
				for i := range keys {
					hit, _ := op(th, keys[i].Arg)
					if hit {
						sink++
					}
				}
				ns[phase] += time.Since(t0)
			}
			ops += chunk
		}
		each := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(ops) }
		l.set("txds.insert_ns_op", each(ns[0]))
		l.set("txds.lookup_ns_op", each(ns[1]))
		l.set("txds.delete_ns_op", each(ns[2]))
		if w.traffic == trafficTree {
			mix := 0.8*each(ns[1]) + 0.1*each(ns[0]) + 0.1*each(ns[2])
			res.Notes = append(res.Notes, fmt.Sprintf(
				"core.exec_ns_p50 %.0f ns beside the 80/10/10-weighted txds probes %.0f ns (one thread, no conflicts)",
				l.get("core.exec_ns_p50"), mix))
		}
	}
}
