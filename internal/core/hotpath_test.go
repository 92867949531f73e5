package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"kstm/internal/queue"
	"kstm/internal/stm"
)

// hotpathExecutor builds the allocation-test configuration: fixed scheduler
// (adaptive sampling would allocate during partition rebuilds), noop
// workload, one worker so completion timing is deterministic.
func hotpathExecutor(t *testing.T, workers int) *Executor {
	t.Helper()
	ex, err := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, task Task) (any, error) { return nil, nil })),
		WithWorkers(workers),
		WithSchedulerKind(SchedFixed, 0, 65535),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Stop() })
	return ex
}

// TestSubmitSteadyStateAllocs is the hot-path allocation regression gate:
// a pooled synchronous Submit — future from the pool, reusable wake-up
// channel, the envelope copied into a preallocated ring slot, recycle on
// Wait — must allocate nothing. GC is disabled across the measurement so
// pool evictions cannot blur the count.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ex := hotpathExecutor(t, 1)
	ctx := context.Background()
	// Warm the pools (futures, worker batch buffers) before measuring.
	for i := 0; i < 256; i++ {
		if _, err := ex.Submit(ctx, Task{Key: uint64(i), Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(500, func() {
		if _, err := ex.Submit(ctx, Task{Key: 7, Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("pooled Submit allocates %.2f objects/op, want 0", avg)
	}
}

// TestSubmitFuncOrRunQueuedAllocs holds SubmitFuncOrRun's queued,
// deadline-carrying branch, the one a server takes behind a busy owner, to
// the hot-path budget: the callback and the budget ride in the pooled future
// shell, so attaching them must not allocate at all. Borrowing is switched
// off so every call queues.
func TestSubmitFuncOrRunQueuedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ex := hotpathExecutor(t, 1)
	ex.borrowOK = false
	ctx := context.Background()
	var done atomic.Int64
	cb := func(TaskResult) { done.Add(1) }
	submit := func(key uint64) {
		if _, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: key, Op: OpNoop}, time.Minute, cb); err != nil || ran {
			t.Fatalf("SubmitFuncOrRun: ran=%v err=%v, want a queued task", ran, err)
		}
	}
	var want int64
	for i := 0; i < 256; i++ {
		submit(uint64(i))
		want++
	}
	waitFor(t, "warmup settled", func() bool { return done.Load() == want })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(500, func() {
		// Wait out each completion so shell recycling keeps pace with
		// submission — the steady state the gate is about; an unbounded
		// burst legitimately grows the future pool.
		before := done.Load()
		submit(7)
		for done.Load() == before {
			runtime.Gosched()
		}
	})
	if avg != 0 {
		t.Fatalf("queued SubmitFuncOrRun allocates %.2f objects/op, want 0", avg)
	}
}

// TestPoolClosedWorldAllocs gates the Pool's fire-and-forget path, the loop
// the paper's figures measure (BenchmarkPoolClosedWorld's configuration):
// RunCount hands each task to its worker without a Future shell or a
// callback, so in steady state it allocates nothing per task. Two runs of
// different lengths cancel the fixed cost of a run (executor, rings,
// goroutines); routing the Pool through a callback submission costs one
// allocation per task, far past the bound.
func TestPoolClosedWorldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sched, err := NewScheduler(SchedRoundRobin, 0, 65535, 2)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	mallocs := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := pool.RunCount(n); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(1000) // warm-up
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const short, long = 1000, 51000
	a, b := mallocs(short), mallocs(long)
	if perTask := (float64(b) - float64(a)) / (long - short); perTask >= 0.1 {
		t.Fatalf("RunCount allocates %.3f objects per task (%d for %d tasks, %d for %d), want 0",
			perTask, a, short, b, long)
	}
}

// TestRingSlotIsOneCacheLine pins the worker ring's per-task footprint: the
// slot's 8-byte sequence plus the 56-byte envelope fill exactly one 64-byte
// cache line. A field added to envelope shows up here first.
func TestRingSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(envelope{}); n != 56 {
		t.Errorf("envelope is %d bytes, want 56", n)
	}
	if n := queue.SlotSize[envelope](); n != 64 {
		t.Errorf("ring slot is %d bytes, want 64 (one cache line)", n)
	}
}

// TestExecutorHotLinesApart pins the executor's shared-line layout: every
// field a submit or a completion writes lies at least 64 bytes from every
// read-mostly field the submit path and the worker loop load, so the
// counters' line never bounces the readers' lines. The executor is not
// allocated line-aligned, so the gate measures byte distance, not line
// indices.
func TestExecutorHotLinesApart(t *testing.T) {
	type field struct {
		name      string
		off, size uintptr
	}
	var ex Executor
	written := []field{
		{"inflight", unsafe.Offsetof(ex.inflight), unsafe.Sizeof(ex.inflight)},
		{"submitted", unsafe.Offsetof(ex.submitted), unsafe.Sizeof(ex.submitted)},
		{"rejected", unsafe.Offsetof(ex.rejected), unsafe.Sizeof(ex.rejected)},
	}
	readMostly := []field{
		{"state", unsafe.Offsetof(ex.state), unsafe.Sizeof(ex.state)},
		{"epoch", unsafe.Offsetof(ex.epoch), unsafe.Sizeof(ex.epoch)},
		{"queues", unsafe.Offsetof(ex.queues), unsafe.Sizeof(ex.queues)},
		{"wakes", unsafe.Offsetof(ex.wakes), unsafe.Sizeof(ex.wakes)},
		{"cfg", unsafe.Offsetof(ex.cfg), unsafe.Sizeof(ex.cfg)},
		{"base", unsafe.Offsetof(ex.base), unsafe.Sizeof(ex.base)},
	}
	for _, w := range written {
		for _, r := range readMostly {
			var gap int64
			if w.off < r.off {
				gap = int64(r.off) - int64(w.off+w.size)
			} else {
				gap = int64(w.off) - int64(r.off+r.size)
			}
			if gap < 64 {
				t.Errorf("Executor.%s [%d,%d) is %d bytes from read-mostly Executor.%s [%d,%d), want >= 64",
					w.name, w.off, w.off+w.size, gap, r.name, r.off, r.off+r.size)
			}
		}
	}
}

// TestSubmitFuncOrRunAllocs pins the caller-runs path at zero allocations: a
// borrowed task takes a pooled shell, runs on the parked worker's state and
// returns its result — no ring slot, no wake, and the prebuilt callback is
// never called.
func TestSubmitFuncOrRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ex := hotpathExecutor(t, 1)
	ctx := context.Background()
	cb := func(TaskResult) { t.Error("callback ran for a borrowed task") }
	waitParked(t, ex, 1)
	run := func() {
		// Every call finds the worker parked: no borrowed task ever wakes it.
		if _, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: 7, Op: OpNoop}, time.Minute, cb); err != nil || !ran {
			t.Fatalf("SubmitFuncOrRun on a parked worker: ran=%v err=%v, want a borrowed task", ran, err)
		}
	}
	for i := 0; i < 256; i++ {
		run()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(500, run); avg != 0 {
		t.Fatalf("borrowed SubmitFuncOrRun allocates %.2f objects/op, want 0", avg)
	}
}

// TestFutureRecycleHandshake hammers the settle-then-recycle handshake from
// many submitters at once; under -race this is the no-settle-after-recycle
// proof (a worker touching a recycled shell races the next owner's writes).
func TestFutureRecycleHandshake(t *testing.T) {
	ex := hotpathExecutor(t, 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				res, err := ex.Submit(ctx, Task{Key: uint64(g*1000 + i), Op: OpNoop, Arg: uint32(i)})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Task.Arg != uint32(i) {
					t.Errorf("result echoes task %d, want %d — a recycled shell leaked a stale result", res.Task.Arg, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFuturePollVsWait drives Poll concurrently with settle and consume:
// Poll never consumes, and the one Wait that returns the result is the
// single consumer.
func TestFuturePollVsWait(t *testing.T) {
	ex := hotpathExecutor(t, 2)
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		fut, err := ex.SubmitAsync(ctx, Task{Key: uint64(i), Op: OpNoop, Arg: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		polled := make(chan struct{})
		go func() { // Poll-only observer: must never consume.
			defer close(polled)
			for {
				if _, ok := fut.Poll(); ok {
					return
				}
			}
		}()
		<-polled // the observer finishes BEFORE the consuming Wait
		res, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Task.Arg != uint32(i) {
			t.Fatalf("result %d echoes task %d", i, res.Task.Arg)
		}
	}
}

// TestFutureWaitCtxThenWait pins the orphaned-wait pattern the server's old
// bridge used: a Wait abandoned by its context does NOT consume the future,
// and a later Wait still observes the settled result.
func TestFutureWaitCtxThenWait(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	fut, err := ex.SubmitAsync(context.Background(), Task{Key: 1, Arg: 42})
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := fut.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated Wait = %v, want DeadlineExceeded", err)
	}
	gate.release()
	res, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.Arg != 42 {
		t.Fatalf("second Wait result %+v", res)
	}
}

// TestSubmitFuncCallback pins SubmitFuncOrRun's callback: done runs exactly
// once per queued task with the task's own result, for executed and abandoned
// tasks alike, and never for a task the caller ran itself.
func TestSubmitFuncCallback(t *testing.T) {
	ex := hotpathExecutor(t, 2)
	ctx := context.Background()
	const n = 200
	results := make(chan TaskResult, n)
	for i := 0; i < n; i++ {
		res, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: uint64(i), Op: OpNoop, Arg: uint32(i)}, 0, func(res TaskResult) {
			results <- res
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			results <- res
		}
	}
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		res := <-results
		if res.Err != nil {
			t.Fatalf("task %d settled with %v", res.Task.Arg, res.Err)
		}
		if seen[res.Task.Arg] {
			t.Fatalf("task %d settled twice", res.Task.Arg)
		}
		seen[res.Task.Arg] = true
	}
	if _, _, err := ex.SubmitFuncOrRun(ctx, Task{}, 0, nil); err == nil {
		t.Error("nil callback accepted")
	}
	// Abandoned-at-stop tasks settle their callbacks with ErrStopped. Pin
	// the worker mid-task, queue a second task behind it, flip the executor
	// to stopped, THEN let the worker finish: the queued task must be
	// abandoned, never executed.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	gx, err := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return nil, nil
		})),
		WithWorkers(1),
		WithSchedulerKind(SchedFixed, 0, 65535),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := gx.Start(ctx); err != nil {
		t.Fatal(err)
	}
	gx.borrowOK = false // task 0 must block the worker, not this goroutine
	blocked := make(chan TaskResult, 2)
	cb := func(res TaskResult) { blocked <- res }
	if _, _, err := gx.SubmitFuncOrRun(ctx, Task{Key: 1, Arg: 0}, 0, cb); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside task 0
	if _, _, err := gx.SubmitFuncOrRun(ctx, Task{Key: 1, Arg: 1}, 0, cb); err != nil {
		t.Fatal(err)
	}
	stopDone := make(chan struct{})
	go func() { gx.Stop(); close(stopDone) }()
	waitFor(t, "stopped state", func() bool { return gx.Stats().State == "stopped" })
	close(release)
	<-stopDone
	var executedErr, abandonedErr error
	for i := 0; i < 2; i++ {
		res := <-blocked
		if res.Task.Arg == 0 {
			executedErr = res.Err
		} else {
			abandonedErr = res.Err
		}
	}
	if executedErr != nil {
		t.Errorf("mid-flight task settled with %v, want nil", executedErr)
	}
	if !errors.Is(abandonedErr, ErrStopped) {
		t.Errorf("queued task settled with %v, want ErrStopped", abandonedErr)
	}
}
