package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm/internal/dist"
	"kstm/internal/stm"
)

// gateWorkload blocks task execution until released, so tests can hold
// tasks in queues deterministically.
type gateWorkload struct {
	gate     chan struct{}
	executed atomic.Int64
}

func newGateWorkload() *gateWorkload { return &gateWorkload{gate: make(chan struct{})} }

func (g *gateWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	<-g.gate
	g.executed.Add(1)
	return nil, nil
}

func (g *gateWorkload) release() { close(g.gate) }

// nopWorkload executes instantly.
type nopWorkload struct{ n atomic.Int64 }

func (w *nopWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	w.n.Add(1)
	return nil, nil
}

func TestNewExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(); err == nil {
		t.Error("NewExecutor without workload succeeded")
	}
	if _, err := NewExecutor(WithWorkload(&nopWorkload{}), WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewExecutor(WithWorkload(&nopWorkload{}), WithBackpressure("drop")); err == nil {
		t.Error("unknown backpressure mode accepted")
	}
	if _, err := NewExecutor(WithWorkload(&nopWorkload{}), WithQueue("stack")); err == nil {
		t.Error("unknown queue kind accepted")
	}
	if _, err := NewExecutor(WithWorkload(&nopWorkload{}), WithSchedulerKind("lifo", 0, 9)); err == nil {
		t.Error("unknown scheduler kind accepted")
	}
}

func TestExecutorLifecycle(t *testing.T) {
	ex, err := NewExecutor(WithWorkload(&nopWorkload{}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if s := ex.Stats().State; s != "new" {
		t.Errorf("state before Start = %q", s)
	}
	// Submit before Start must fail.
	if _, err := ex.Submit(context.Background(), Task{}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Submit before Start: %v", err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("second Start: %v", err)
	}
	if s := ex.Stats().State; s != "running" {
		t.Errorf("state after Start = %q", s)
	}
	if _, err := ex.Submit(context.Background(), Task{Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if s := ex.Stats().State; s != "stopped" {
		t.Errorf("state after Drain = %q", s)
	}
	// Submission after Drain must fail; Drain again reports not running;
	// Stop stays idempotent.
	if _, err := ex.Submit(context.Background(), Task{}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Submit after Drain: %v", err)
	}
	if err := ex.Drain(); !errors.Is(err, ErrNotRunning) {
		t.Errorf("second Drain: %v", err)
	}
	if err := ex.Stop(); err != nil {
		t.Errorf("Stop after Drain: %v", err)
	}
}

// TestSubmitConcurrentAdaptive is the acceptance scenario: 8 workers, 16
// submitting goroutines, adaptive dispatch, run under -race. Every Submit
// must complete, the adaptive scheduler must learn a partition from the
// live submissions, and the counters must reconcile.
func TestSubmitConcurrentAdaptive(t *testing.T) {
	w := &nopWorkload{}
	ex, err := NewExecutor(
		WithWorkload(w),
		WithWorkers(8),
		WithSchedulerKind(SchedAdaptive, 0, dist.MaxKey, WithThreshold(2000)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 16, 500
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := dist.NewExponentialDefault(uint64(g + 1))
			for i := 0; i < per; i++ {
				key, _ := dist.Split(src.Next())
				res, err := ex.Submit(context.Background(), Task{Key: uint64(key), Op: OpNoop, Arg: key})
				if err != nil {
					failures.Add(1)
					return
				}
				if res.Worker < 0 || res.Worker >= 8 {
					t.Errorf("worker index %d out of range", res.Worker)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d goroutines saw Submit errors", failures.Load())
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	const total = goroutines * per
	if st.Completed != total || st.Submitted != total {
		t.Fatalf("completed %d submitted %d, want %d", st.Completed, st.Submitted, total)
	}
	if w.n.Load() != total {
		t.Fatalf("workload executed %d, want %d", w.n.Load(), total)
	}
	ad, ok := ex.Scheduler().(*Adaptive)
	if !ok {
		t.Fatal("scheduler is not adaptive")
	}
	if !ad.Adapted() {
		t.Error("adaptive scheduler did not learn a partition from live submissions")
	}
}

func TestSubmitAsyncFuture(t *testing.T) {
	ex, err := NewExecutor(WithWorkload(&nopWorkload{}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	fut, err := ex.SubmitAsync(context.Background(), Task{Key: 42, Op: OpInsert, Arg: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Poll before consuming: returns the settled result without recycling,
	// so a later Wait still observes it (the consume happens exactly once).
	for {
		if _, ok := fut.Poll(); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	res, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.Key != 42 || res.Err != nil {
		t.Fatalf("result %+v", res)
	}
	if res.Wait < 0 || res.Exec < 0 {
		t.Errorf("negative timings: %+v", res)
	}
	// fut is dead here: Wait returned its result and recycled the shell
	// (the §3.5 settle-then-recycle contract).
}

// TestSubmitAllBatch runs one batch through each of SubmitAll's paths — the
// grouped splice on a plain executor, the per-task path under a migration
// fence (re-partitions fire mid-batch) and under a split table (adds absorb,
// lookups park) — and requires every future to settle, once, with its own
// task.
func TestSubmitAllBatch(t *testing.T) {
	const n = 300
	rows := []struct {
		name  string
		build func(t *testing.T) *Executor
		task  func(i int) Task
		check func(t *testing.T, ex *Executor)
	}{
		{
			name: "plain",
			build: func(t *testing.T) *Executor {
				ex, err := NewExecutor(WithWorkload(&nopWorkload{}), WithWorkers(4))
				if err != nil {
					t.Fatal(err)
				}
				return ex
			},
			task:  func(i int) Task { return Task{Key: uint64(i * 217 % 65536), Op: OpNoop, Arg: uint32(i)} },
			check: func(t *testing.T, ex *Executor) {},
		},
		{
			name: "migration",
			build: func(t *testing.T) *Executor {
				ex, err := NewExecutor(
					WithWorkers(4),
					WithSharding(ShardPerWorker),
					WithWorkloadFactory(&mapFactory{}),
					WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(64), WithReAdaptation()),
					WithMigration(MigrateOnRepartition),
				)
				if err != nil {
					t.Fatal(err)
				}
				return ex
			},
			// Mass alternates between the two ends of the key space, so
			// successive windows re-partition and move ranges mid-batch.
			task: func(i int) Task {
				k := uint64(i*131) % 16384
				if (i/64)%2 == 1 {
					k += 49152
				}
				return Task{Key: k, Op: OpInsert, Arg: uint32(i)}
			},
			check: func(t *testing.T, ex *Executor) {
				if err := ex.MigrationErr(); err != nil {
					t.Errorf("MigrationErr = %v", err)
				}
				if st := ex.Stats(); st.SchedulerEpochs == 0 {
					t.Error("no re-partition fired during the batch: the fenced path was not exercised")
				}
			},
		},
		{
			name: "split",
			build: func(t *testing.T) *Executor {
				ex, _ := newSplitCounterExecutor(t, 16, 4, WithSplitPhase(SplitKeys(3), SplitEpoch(500*time.Microsecond)))
				return ex
			},
			task: func(i int) Task {
				if i%10 == 9 {
					return Task{Key: 3, Op: OpLookup, Arg: uint32(i)}
				}
				return Task{Key: uint64(i % 16), Op: OpAdd, Arg: uint32(i)}
			},
			check: func(t *testing.T, ex *Executor) {
				if st := ex.SplitStats(); st.ParkedTasks == 0 {
					t.Error("no lookup parked on the split key: the split path was not exercised")
				}
				if err := ex.SplitErr(); err != nil {
					t.Errorf("SplitErr = %v", err)
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ex := row.build(t)
			ctx := context.Background()
			if err := ex.Start(ctx); err != nil {
				t.Fatal(err)
			}
			defer ex.Stop()
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = row.task(i)
			}
			futs, err := ex.SubmitAll(ctx, tasks)
			if err != nil {
				t.Fatal(err)
			}
			if len(futs) != len(tasks) {
				t.Fatalf("%d futures", len(futs))
			}
			for i, f := range futs {
				res, err := f.Wait(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if res.Task.Arg != uint32(i) {
					t.Errorf("future at slot %d echoes task %d", i, res.Task.Arg)
				}
			}
			if err := ex.Drain(); err != nil {
				t.Fatal(err)
			}
			st := ex.Stats()
			if st.Completed != n || st.Cancelled != 0 || st.InFlight != 0 {
				t.Errorf("completed=%d cancelled=%d inflight=%d, want %d/0/0 (each task settles once)",
					st.Completed, st.Cancelled, st.InFlight, n)
			}
			row.check(t, ex)
		})
	}
}

func TestSubmitContextCancelledMidFlight(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// First task occupies the single worker at the gate; the second sits
	// in the queue with a cancellable context.
	blocker, err := ex.SubmitAsync(context.Background(), Task{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued, err := ex.SubmitAsync(ctx, Task{Key: 2})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	gate.release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	res, err := queued.Wait(context.Background())
	if !errors.Is(err, context.Canceled) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled task completed with %v / %v, want context.Canceled", err, res.Err)
	}
	// The cancelled task must have been skipped, not executed.
	if n := gate.executed.Load(); n != 1 {
		t.Fatalf("workload executed %d tasks, want 1", n)
	}
}

func TestDrainCompletesInFlight(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 50
	futs, err := ex.SubmitAll(context.Background(), make([]Task, n))
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- ex.Drain() }()
	// Drain must not finish while tasks are gated.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with tasks still gated", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		res, ok := f.Poll()
		if !ok {
			t.Fatalf("future %d unresolved after Drain", i)
		}
		if res.Err != nil {
			t.Fatalf("future %d: %v", i, res.Err)
		}
	}
	if st := ex.Stats(); st.Completed != n || st.InFlight != 0 {
		t.Fatalf("stats after Drain: %+v", st)
	}
}

func TestBackpressureReject(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(
		WithWorkload(gate),
		WithWorkers(1),
		WithQueueDepth(4),
		WithBackpressure(BackpressureReject),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// Fill: one task occupies the worker, then the queue fills to its
	// bound; the next submission must be rejected, not block.
	var futs []*Future
	sawFull := false
	for i := 0; i < 32; i++ {
		fut, err := ex.SubmitAsync(context.Background(), Task{Key: 1})
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if !sawFull {
		t.Fatal("no ErrQueueFull despite depth 4 and a gated worker")
	}
	if ex.Stats().Rejected == 0 {
		t.Error("Rejected counter not incremented")
	}
	gate.release()
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBackpressureBlockWaitsForSpace(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(
		WithWorkload(gate),
		WithWorkers(1),
		WithQueueDepth(2),
		WithBackpressure(BackpressureBlock),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// Fill worker + queue, then submit one more: it must block until the
	// gate opens, then complete.
	for i := 0; i < 3; i++ {
		if _, err := ex.SubmitAsync(context.Background(), Task{Key: 1}); err != nil {
			t.Fatal(err)
		}
	}
	extra := make(chan error, 1)
	go func() {
		_, err := ex.Submit(context.Background(), Task{Key: 1})
		extra <- err
	}()
	select {
	case err := <-extra:
		t.Fatalf("blocked Submit returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	gate.release()
	if err := <-extra; err != nil {
		t.Fatal(err)
	}
}

func TestBackpressureBlockHonorsContext(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Stop joins workers, so the gate must open before it runs (LIFO).
	defer ex.Stop()
	defer gate.release()
	for i := 0; i < 2; i++ {
		if _, err := ex.SubmitAsync(context.Background(), Task{Key: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := ex.SubmitAsync(ctx, Task{Key: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit with expiring ctx: %v", err)
	}
}

func TestStopAbandonsQueued(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	futs, err := ex.SubmitAll(context.Background(), make([]Task, 20))
	if err != nil {
		t.Fatal(err)
	}
	gate.release() // workers may finish some tasks; the rest must settle
	if err := ex.Stop(); err != nil {
		t.Fatal(err)
	}
	executed, stopped := 0, 0
	for i, f := range futs {
		res, ok := f.Poll()
		if !ok {
			t.Fatalf("future %d unresolved after Stop", i)
		}
		switch {
		case res.Err == nil:
			executed++
		case errors.Is(res.Err, ErrStopped):
			stopped++
		default:
			t.Fatalf("future %d: unexpected error %v", i, res.Err)
		}
	}
	if executed+stopped != 20 {
		t.Fatalf("executed %d + stopped %d != 20", executed, stopped)
	}
	if st := ex.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight %d after Stop", st.InFlight)
	}
}

func TestStartContextCancelStops(t *testing.T) {
	ex, err := NewExecutor(WithWorkload(&nopWorkload{}), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Submit(context.Background(), Task{Key: 3}); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for ex.Stats().State != "stopped" {
		if time.Now().After(deadline) {
			t.Fatal("executor did not stop after Start-context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := ex.Submit(context.Background(), Task{}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Submit after ctx cancel: %v", err)
	}
}

func TestSubmitReportsWorkloadError(t *testing.T) {
	sentinel := errors.New("hard failure")
	wl := WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
		if task.Op == OpDelete {
			return nil, sentinel
		}
		return nil, nil
	})
	ex, err := NewExecutor(WithWorkload(wl), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	res, err := ex.Submit(context.Background(), Task{Key: 1, Op: OpDelete})
	if !errors.Is(err, sentinel) || !errors.Is(res.Err, sentinel) {
		t.Fatalf("Submit error = %v / %v, want sentinel", err, res.Err)
	}
	// A per-task error must not poison the executor: the next task runs.
	if _, err := ex.Submit(context.Background(), Task{Key: 2, Op: OpInsert}); err != nil {
		t.Fatalf("executor dead after task error: %v", err)
	}
	if st := ex.Stats(); st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
}

func TestLiveStatsSnapshot(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(2), WithQueueDepth(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// More than two workers can hold in their drain batches, so some stay
	// queued however soon the workers pick theirs up.
	const n = 2*drainBatch + 16
	if _, err := ex.SubmitAll(context.Background(), make([]Task, n)); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Submitted != n || st.InFlight != n {
		t.Errorf("mid-run stats: %+v", st)
	}
	if st.State != "running" {
		t.Errorf("state = %q", st.State)
	}
	depth := 0
	for _, d := range st.QueueDepths {
		depth += d
	}
	if depth == 0 {
		t.Error("no queued tasks visible in QueueDepths")
	}
	if len(st.PerWorker) != 2 || st.Scheduler == "" || st.Workers != 2 {
		t.Errorf("shape: %+v", st)
	}
	gate.release()
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st = ex.Stats()
	if st.Completed != n || st.Throughput() <= 0 {
		t.Errorf("final stats: %+v", st)
	}
	// Elapsed freezes at the stop instant: post-run throughput must not
	// decay as wall time passes.
	time.Sleep(5 * time.Millisecond)
	if again := ex.Stats(); again.Elapsed != st.Elapsed {
		t.Errorf("Elapsed kept growing after stop: %v -> %v", st.Elapsed, again.Elapsed)
	}
}

// TestPoolCompatOnEngine proves the legacy Pool surface reports the same
// Result shape now that it runs on the Executor engine.
func TestPoolCompatOnEngine(t *testing.T) {
	for _, model := range Models() {
		model := model
		t.Run(string(model), func(t *testing.T) {
			w := newCountingWorkload()
			cfg := validConfig(w)
			cfg.Model = model
			pool, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1500
			res, err := pool.RunCount(n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != n || w.total() != n {
				t.Fatalf("completed %d / executed %d, want %d", res.Completed, w.total(), n)
			}
			if res.Model != model || len(res.PerWorker) != cfg.Workers {
				t.Fatalf("result shape: %+v", res)
			}
			if model != ModelNoExecutor && res.Produced < res.Completed {
				t.Fatalf("produced %d < completed %d", res.Produced, res.Completed)
			}
		})
	}
}

func ExampleExecutor() {
	ex, _ := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, t Task) (any, error) { return nil, nil })),
		WithWorkers(2),
	)
	_ = ex.Start(context.Background())
	res, _ := ex.Submit(context.Background(), Task{Key: 7, Op: OpNoop})
	_ = ex.Drain()
	fmt.Println(res.Task.Key, ex.Stats().State)
	// Output: 7 stopped
}
