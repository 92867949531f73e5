package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// quantileOf returns the exact q-quantile of xs (sorted in place).
func quantileOf(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[int(q*float64(len(xs)-1))])
}

// column extracts one duration from every span.
func column(spans []span, f func(*span) int64) []int64 {
	out := make([]int64, len(spans))
	for i := range spans {
		out[i] = f(&spans[i])
	}
	return out
}

// selfTime is the root op's self time: what its children do not cover —
// settle and waiter wake-up in process, client + kernel + server outside the
// executor over the wire. The executor stamps a task's queue wait from
// inside the submit call, so the children can overlap by a few hundred
// nanoseconds; the remainder is clamped at zero.
func selfTime(s *span) int64 {
	return max(s.op-s.late-s.call-s.queue-s.exec, 0)
}

// spanNames names the call span and the root's self time for a workload.
func (w *workload) spanNames() (call, self string) {
	if w.wire() {
		return "client.send", "transport"
	}
	return "core.submit", "return"
}

// spanMetrics turns the traced window's spans into the span-sourced layer
// metrics and the attribution table, and prices the tracing itself.
func (res *result) spanMetrics(w *workload, load *loadResult) {
	b, c := &load.measureEnd, &load.traceEnd
	secs := float64(c.at-b.at) / 1e9
	res.PhaseSeconds["traced"] = secs
	var spans []span
	var tracedOK uint64
	for _, s := range load.subs {
		spans = append(spans, s.spans...)
		tracedOK += s.rec[load.traceTick].ok
	}
	res.Samples["spans"] = uint64(len(spans))
	res.layer.set("trace.overhead_pct", 100*ratio(res.untracedOpsS-float64(tracedOK)/secs, res.untracedOpsS))

	op := column(spans, func(s *span) int64 { return s.op })
	late := column(spans, func(s *span) int64 { return s.late })
	call := column(spans, func(s *span) int64 { return s.call })
	wait := column(spans, func(s *span) int64 { return s.wait })
	queue := column(spans, func(s *span) int64 { return s.queue })
	exec := column(spans, func(s *span) int64 { return s.exec })
	self := column(spans, selfTime)

	l := res.layer
	l.set("core.queue_wait_ns_p50", quantileOf(queue, 0.50))
	l.set("core.queue_wait_ns_p99", quantileOf(queue, 0.99))
	l.set("core.exec_ns_p50", quantileOf(exec, 0.50))
	l.set("core.exec_ns_p99", quantileOf(exec, 0.99))
	callName, selfName := w.spanNames()
	if w.wire() {
		l.set("client.send_ns_p50", quantileOf(call, 0.50))
		l.set("client.send_ns_p99", quantileOf(call, 0.99))
		l.set("client.wait_ns_p50", quantileOf(wait, 0.50))
		// The round trip outside the executor, the send call included.
		overhead := column(spans, func(s *span) int64 { return s.op - s.late - s.queue - s.exec })
		l.set("transport.overhead_ns_p50", quantileOf(overhead, 0.50))
		l.set("transport.overhead_ns_p99", quantileOf(overhead, 0.99))
	} else {
		l.set("core.submit_ns_p50", quantileOf(call, 0.50))
		l.set("core.submit_ns_p99", quantileOf(call, 0.99))
		l.set("core.return_ns_p50", quantileOf(self, 0.50))
	}

	opP50 := quantileOf(op, 0.50)
	row := func(name string, xs []int64) {
		p50 := quantileOf(xs, 0.50)
		res.Spans = append(res.Spans, spanShare{Span: name, SelfP50: p50, Share: ratio(p50, opP50)})
	}
	row("op", op)
	if w.load == loadPaced {
		row("gen.late", late)
	}
	row(callName, call)
	row("exec.queue_wait", queue)
	row("exec.run", exec)
	row(selfName, self)
}

// writeTrace writes the sampled requests as one JSON line per span. Spans of
// one request share its id; children carry durations only where the executor
// reports no absolute start. The root's self time (return / transport) is
// what the children leave uncovered.
func writeTrace(dir string, w *workload, subs []*submitter) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+w.name+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	out := bufio.NewWriter(f)
	callName, _ := w.spanNames()
	for _, sub := range subs {
		for i := range sub.spans {
			s := &sub.spans[i]
			fmt.Fprintf(out, `{"id":%d,"span":"op","parent":"","start_ns":%d,"dur_ns":%d}`+"\n", s.id, s.start, s.op)
			child := func(name string, start, dur int64) {
				if start >= 0 {
					fmt.Fprintf(out, `{"id":%d,"span":%q,"parent":"op","start_ns":%d,"dur_ns":%d}`+"\n", s.id, name, start, dur)
				} else {
					fmt.Fprintf(out, `{"id":%d,"span":%q,"parent":"op","dur_ns":%d}`+"\n", s.id, name, dur)
				}
			}
			if w.load == loadPaced {
				child("gen.late", s.start, s.late)
			}
			child(callName, s.start+s.late, s.call)
			child("exec.queue_wait", -1, s.queue)
			child("exec.run", -1, s.exec)
		}
	}
	return out.Flush()
}
