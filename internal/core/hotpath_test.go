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

// TestSubmitFuncTimedAllocs holds the deadline-carrying submission to the
// same hot-path budget as SubmitFunc: the budget rides in the pooled future
// shell, so attaching one must not allocate at all.
func TestSubmitFuncTimedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ex := hotpathExecutor(t, 1)
	ctx := context.Background()
	var done atomic.Int64
	cb := func(TaskResult) { done.Add(1) }
	var want int64
	for i := 0; i < 256; i++ {
		if err := ex.SubmitFuncTimed(ctx, Task{Key: uint64(i), Op: OpNoop}, time.Minute, cb); err != nil {
			t.Fatal(err)
		}
		want++
	}
	waitFor(t, "warmup settled", func() bool { return done.Load() == want })
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(500, func() {
		// Wait out each completion so shell recycling keeps pace with
		// submission — the steady state the gate is about; an unbounded
		// burst legitimately grows the future pool.
		before := done.Load()
		if err := ex.SubmitFuncTimed(ctx, Task{Key: 7, Op: OpNoop}, time.Minute, cb); err != nil {
			t.Fatal(err)
		}
		want++
		for done.Load() == before {
			runtime.Gosched()
		}
	})
	if avg != 0 {
		t.Fatalf("SubmitFuncTimed allocates %.2f objects/op, want 0", avg)
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

// TestSubmitFuncCallback pins the callback variant: done runs exactly once
// per task with the task's own result, for executed and abandoned tasks
// alike.
func TestSubmitFuncCallback(t *testing.T) {
	ex := hotpathExecutor(t, 2)
	ctx := context.Background()
	const n = 200
	results := make(chan TaskResult, n)
	for i := 0; i < n; i++ {
		err := ex.SubmitFunc(ctx, Task{Key: uint64(i), Op: OpNoop, Arg: uint32(i)}, func(res TaskResult) {
			results <- res
		})
		if err != nil {
			t.Fatal(err)
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
	if err := ex.SubmitFunc(ctx, Task{}, nil); err == nil {
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
	blocked := make(chan TaskResult, 2)
	cb := func(res TaskResult) { blocked <- res }
	if err := gx.SubmitFunc(ctx, Task{Key: 1, Arg: 0}, cb); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside task 0
	if err := gx.SubmitFunc(ctx, Task{Key: 1, Arg: 1}, cb); err != nil {
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
