package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"kstm/internal/stm"
)

// deadlineHarness builds a one-worker executor whose key-0 task blocks on
// the returned channel — so anything submitted after it provably sits in
// queue until the channel closes — and counts executions of every other key.
func deadlineHarness(t *testing.T) (ex *Executor, release chan struct{}, executed *atomic.Int64) {
	t.Helper()
	release = make(chan struct{})
	executed = &atomic.Int64{}
	ex, err := NewExecutor(
		WithWorkers(1),
		WithQueueDepth(64),
		WithBackpressure(BackpressureReject),
		WithWorkload(WorkloadFunc(func(_ *stm.Thread, tk Task) (any, error) {
			if tk.Key == 0 {
				<-release
				return nil, nil
			}
			executed.Add(1)
			return nil, nil
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ex, release, executed
}

// TestQueuedDeadlineShed is the deadline-propagation acceptance test: a task
// whose budget expires while it is queued behind a blocker is shed — it
// settles with ErrDeadlineExpired, its workload NEVER executes, and it
// counts under ExecStats.DeadlineExpired (not Cancelled, not Completed).
func TestQueuedDeadlineShed(t *testing.T) {
	ex, release, executed := deadlineHarness(t)
	ctx := context.Background()

	blocker, err := ex.SubmitAsync(ctx, Task{Key: 0})
	if err != nil {
		t.Fatal(err)
	}
	victimDone := queueBehind(t, ex, Task{Key: 1}, time.Millisecond)
	// Hold the worker well past the victim's 1ms budget, then let it reach
	// the victim: the dequeue-time check must shed it.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if r := <-victimDone; !errors.Is(r.Err, ErrDeadlineExpired) {
		t.Fatalf("victim err = %v, want ErrDeadlineExpired", r.Err)
	}
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatalf("blocker err = %v", err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("shed task executed %d times, want 0", n)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.DeadlineExpired != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", st.DeadlineExpired)
	}
	if st.Cancelled != 0 {
		t.Errorf("Cancelled = %d, want 0 (shed is its own bucket)", st.Cancelled)
	}
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (the blocker alone)", st.Completed)
	}
}

// TestDeadlineAmpleBudgetExecutes: a budget that outlives the queue wait is
// inert — the task executes and completes normally.
func TestDeadlineAmpleBudgetExecutes(t *testing.T) {
	ex, release, executed := deadlineHarness(t)
	ctx := context.Background()
	close(release) // no blocking this time

	done := make(chan TaskResult, 1)
	res, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: 1}, time.Minute, func(r TaskResult) { done <- r })
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		done <- res
	}
	if r := <-done; r.Err != nil {
		t.Fatalf("err = %v", r.Err)
	}
	if n := executed.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.DeadlineExpired != 0 || st.Completed != 1 {
		t.Errorf("DeadlineExpired = %d, Completed = %d; want 0, 1", st.DeadlineExpired, st.Completed)
	}
}

// TestDeadlineZeroBudgetIsSubmitFunc: budget 0 means "no deadline" — a
// queued task waits out any queue time, like a task submitted without a
// budget. The wire protocol's deadline field relies on it: 0 is "none".
func TestDeadlineZeroBudgetIsSubmitFunc(t *testing.T) {
	ex, release, executed := deadlineHarness(t)
	ctx := context.Background()

	blocker, err := ex.SubmitAsync(ctx, Task{Key: 0})
	if err != nil {
		t.Fatal(err)
	}
	done := queueBehind(t, ex, Task{Key: 1}, 0)
	time.Sleep(10 * time.Millisecond) // would shed any positive budget
	close(release)
	if _, err := blocker.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.Err != nil {
		t.Fatalf("err = %v", r.Err)
	}
	if n := executed.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.DeadlineExpired != 0 {
		t.Errorf("DeadlineExpired = %d, want 0", st.DeadlineExpired)
	}
}

// queueBehind submits task with budget through SubmitFuncOrRun behind the
// worker's blocker, so it must queue, and returns the channel its callback
// settles on.
func queueBehind(t *testing.T, ex *Executor, task Task, budget time.Duration) <-chan TaskResult {
	t.Helper()
	done := make(chan TaskResult, 1)
	_, ran, err := ex.SubmitFuncOrRun(context.Background(), task, budget, func(r TaskResult) { done <- r })
	if err != nil || ran {
		t.Fatalf("SubmitFuncOrRun behind the blocker: ran=%v err=%v, want a queued task", ran, err)
	}
	return done
}
