package main

import (
	"time"

	"kstm"
	"kstm/internal/queue"
)

// queued stands in for the executor's unexported envelope: the same 56
// bytes, so a queue node lands in the same allocator size class.
type queued struct {
	task kstm.Task
	fut  *kstm.Future
	ctx  any
	enq  time.Duration
}

// probeQueue times the executor's default queue kind: one Put and its Get,
// and one 64-element PutAll and its Gets.
func probeQueue(d time.Duration, inputs []kstm.Task, l *metricSet) {
	q, err := queue.New[queued](queue.KindMSCQ)
	if err != nil {
		return
	}
	n := len(inputs)
	l.set("queue.put_get_ns_op", perOp(d, n, func() {
		for i := range inputs {
			q.Put(queued{task: inputs[i]})
			v, _ := q.Get()
			sink += v.task.Key
		}
	}))
	const batch = 64
	group := make([]queued, batch)
	l.set("queue.putall64_ns_op", perOp(d, n/batch*batch, func() {
		for lo := 0; lo+batch <= n; lo += batch {
			for i := range group {
				group[i].task = inputs[lo+i]
			}
			q.PutAll(group)
			for range group {
				v, _ := q.Get()
				sink += v.task.Key
			}
		}
	}))
}
