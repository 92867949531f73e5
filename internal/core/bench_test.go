package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"kstm/internal/stm"
)

// benchExecutor builds a minimal hot-path executor: fixed scheduler (no
// sampling), noop workload, blocking backpressure.
func benchExecutor(b *testing.B, workers int) *Executor {
	b.Helper()
	ex, err := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, t Task) (any, error) { return nil, nil })),
		WithWorkers(workers),
		WithSchedulerKind(SchedFixed, 0, 65535),
	)
	if err != nil {
		b.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ex.Stop() })
	return ex
}

// BenchmarkSubmit measures the pooled synchronous round trip: SubmitAsync +
// Wait + recycle. Steady state should allocate nothing (the envelope goes
// into a preallocated ring slot) — the AllocsPerRun regression test in
// hotpath_test.go pins that bound.
func BenchmarkSubmit(b *testing.B) {
	ex := benchExecutor(b, 2)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Submit(ctx, Task{Key: uint64(i) & 65535, Op: OpNoop}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWakeLatency measures the synchronous round trip against a PARKED
// worker — the targeted-wake path event-driven dispatch introduced
// (DESIGN.md §5.4), where the old poll+park loop charged up to a full 100µs
// sleep quantum before the first poll. Each iteration waits off the clock
// for the worker to park, then times one Submit; contrast with
// BenchmarkSubmit, which keeps the worker hot. Pinned in CI next to the
// AllocsPerRun gates (TestWakeLatencyBudget is the hard assert).
func BenchmarkWakeLatency(b *testing.B) {
	ex := benchExecutor(b, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for ex.parked.Load() == 0 {
			runtime.Gosched()
		}
		b.StartTimer()
		if _, err := ex.Submit(ctx, Task{Key: 1, Op: OpNoop}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitAsync measures pipelined submission: a window of in-flight
// futures awaited in order.
func BenchmarkSubmitAsync(b *testing.B) {
	ex := benchExecutor(b, 2)
	ctx := context.Background()
	const window = 64
	futs := make([]*Future, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fut, err := ex.SubmitAsync(ctx, Task{Key: uint64(i) & 65535, Op: OpNoop})
		if err != nil {
			b.Fatal(err)
		}
		futs = append(futs, fut)
		if len(futs) == window {
			for _, f := range futs {
				if _, err := f.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
			futs = futs[:0]
		}
	}
	b.StopTimer()
	for _, f := range futs {
		f.Wait(ctx)
	}
}

// BenchmarkSubmitFunc measures the callback variant servers use: no future,
// completion counted through a channel-free sink.
func BenchmarkSubmitFunc(b *testing.B) {
	ex := benchExecutor(b, 2)
	ctx := context.Background()
	done := make(chan struct{}, 1)
	var pending int
	sink := func(TaskResult) {
		select {
		case done <- struct{}{}:
		default:
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.SubmitFunc(ctx, Task{Key: uint64(i) & 65535, Op: OpNoop}, sink); err != nil {
			b.Fatal(err)
		}
		pending++
		if pending == 64 {
			// Rough pacing: drain one completion signal per window so the
			// queues stay bounded without per-task synchronization.
			<-done
			pending = 0
		}
	}
	b.StopTimer()
	ex.Drain()
}

// BenchmarkSubmitAll sweeps batch sizes; b.N counts TASKS so ns/op is
// comparable across sizes.
func BenchmarkSubmitAll(b *testing.B) {
	for _, size := range []int{1, 8, 64, 512} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			ex := benchExecutor(b, 4)
			ctx := context.Background()
			tasks := make([]Task, size)
			for i := range tasks {
				tasks[i] = Task{Key: uint64(i*2654435761) & 65535, Op: OpNoop}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				futs, err := ex.SubmitAll(ctx, tasks)
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range futs {
					if _, err := f.Wait(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBatchDequeue drives the worker batch-drain loop: one producer
// keeps a single worker's queue deep so every poll drains a full batch.
func BenchmarkBatchDequeue(b *testing.B) {
	ex := benchExecutor(b, 1)
	ctx := context.Background()
	const window = 1024
	futs := make([]*Future, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += window {
		for i := 0; i < window; i++ {
			fut, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpNoop})
			if err != nil {
				b.Fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, f := range futs {
			if _, err := f.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
		futs = futs[:0]
	}
}

// BenchmarkPoolClosedWorld drives the legacy fire-and-forget path (the
// Figure-4 closed-world configuration: trivial transactions, 6 producers,
// round-robin) — the guard that open-path batching work never taxes the
// paper's measured loop.
func BenchmarkPoolClosedWorld(b *testing.B) {
	sched, err := NewScheduler(SchedRoundRobin, 0, 65535, 2)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := NewPool(Config{
		STM:      stm.New(),
		Workload: WorkloadFunc(func(th *stm.Thread, t Task) (any, error) { return nil, nil }),
		NewSource: func(p int) TaskSource {
			var k uint64
			return SourceFunc(func() Task { k++; return Task{Key: k & 65535, Op: OpNoop} })
		},
		Workers:   2,
		Producers: 6,
		Model:     ModelParallel,
		Scheduler: sched,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pool.RunCount(max(b.N, 100)); err != nil {
		b.Fatal(err)
	}
}
