package core

import (
	"context"
	"errors"
	"testing"

	"kstm/internal/stm"
	"kstm/internal/txds"
)

// TestCancelledBeforeExecutionNotCompleted is the deterministic accounting
// test for the cancellation bugfix: tasks whose submission context is
// cancelled while they sit queued must settle with the context error, count
// under Cancelled, and leave Completed (and the Throughput/LoadImbalance
// figures built on it) untouched.
func TestCancelledBeforeExecutionNotCompleted(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The blocker occupies the single worker at the gate; everything after
	// it queues behind it deterministically (same key, one worker).
	blocker, err := ex.SubmitAsync(context.Background(), Task{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	const queued = 8
	ctx, cancel := context.WithCancel(context.Background())
	futs := make([]*Future, 0, queued)
	for i := 0; i < queued; i++ {
		f, err := ex.SubmitAsync(ctx, Task{Key: 1})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	cancel()
	gate.release()
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i, f := range futs {
		res, err := f.Wait(context.Background())
		if !errors.Is(err, context.Canceled) || !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("future %d settled with %v / %v, want context.Canceled", i, err, res.Err)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (cancelled tasks must not count)", st.Completed)
	}
	if st.Cancelled != queued {
		t.Errorf("Cancelled = %d, want %d", st.Cancelled, queued)
	}
	if st.Submitted != queued+1 {
		t.Errorf("Submitted = %d, want %d", st.Submitted, queued+1)
	}
	if n := gate.executed.Load(); n != 1 {
		t.Errorf("workload executed %d tasks, want 1", n)
	}
	if got := st.Throughput() * st.Elapsed.Seconds(); got > 1.5 {
		t.Errorf("throughput implies %.1f tasks, want 1 (inflated by cancellations?)", got)
	}
}

// TestStopAbandonedCountedCancelled checks the executed/abandoned accounting
// identity around Stop: every accepted task lands in exactly one of
// Completed (it ran) or Cancelled (it settled with ErrStopped).
func TestStopAbandonedCountedCancelled(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 20
	futs := submitEach(t, ex, context.Background(), make([]Task, n))
	gate.release()
	if err := ex.Stop(); err != nil {
		t.Fatal(err)
	}
	executed, stopped := uint64(0), uint64(0)
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
	st := ex.Stats()
	if st.Completed != executed {
		t.Errorf("Completed = %d, want %d (the tasks that ran)", st.Completed, executed)
	}
	if st.Cancelled != stopped {
		t.Errorf("Cancelled = %d, want %d (the tasks Stop abandoned)", st.Cancelled, stopped)
	}
	if st.Completed+st.Cancelled != n {
		t.Errorf("Completed %d + Cancelled %d != %d accepted", st.Completed, st.Cancelled, n)
	}
}

// TestOrphanedTaskMutationLands pins the documented orphaned-task contract:
// when Future.Wait returns the WAITER's context error, the task itself is
// still accepted — it executes, its mutation lands in transactional state,
// and it counts as Completed. Only cancelling the SUBMISSION context before
// execution prevents the run.
func TestOrphanedTaskMutationLands(t *testing.T) {
	s := stm.New()
	table := txds.NewHashTable(31)
	gate := newGateWorkload()
	wl := WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
		<-gate.gate
		gate.executed.Add(1)
		return table.Insert(th, task.Arg)
	})
	ex, err := NewExecutor(WithSTM(s), WithWorkload(wl), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Submit with a background context (the task is never cancelled), then
	// abandon the wait with an already-expired context.
	fut, err := ex.SubmitAsync(context.Background(), Task{Key: 7, Op: OpInsert, Arg: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fut.Wait(waitCtx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on cancelled context returned %v, want context.Canceled", err)
	}
	// The caller walked away; the task still runs and its insert lands.
	gate.release()
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	res, ok := fut.Poll()
	if !ok || res.Err != nil {
		t.Fatalf("orphaned task did not settle cleanly: ok=%v err=%v", ok, res.Err)
	}
	th := s.NewThread()
	found, err := table.Contains(th, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("orphaned task's insert did not land in the table")
	}
	st := ex.Stats()
	if st.Completed != 1 || st.Cancelled != 0 {
		t.Errorf("Completed/Cancelled = %d/%d, want 1/0", st.Completed, st.Cancelled)
	}
}

// TestCancelledExcludedFromLoadImbalance: cancellations routed to one worker
// must not skew the per-worker balance figure, which is defined over
// executed work.
func TestCancelledExcludedFromLoadImbalance(t *testing.T) {
	gate := newGateWorkload()
	ex, err := NewExecutor(WithWorkload(gate), WithWorkers(2),
		WithSchedulerKind(SchedFixed, 0, 99))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One gated task per worker (keys 0 and 99 land in different fixed
	// ranges), then a pile of doomed tasks all routed to worker 0.
	b0, err := ex.SubmitAsync(context.Background(), Task{Key: 0})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := ex.SubmitAsync(context.Background(), Task{Key: 99})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 10; i++ {
		if _, err := ex.SubmitAsync(ctx, Task{Key: 0}); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	gate.release()
	for _, f := range []*Future{b0, b1} {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Completed != 2 || st.Cancelled != 10 {
		t.Fatalf("Completed/Cancelled = %d/%d, want 2/10", st.Completed, st.Cancelled)
	}
	if imb := st.LoadImbalance(); imb != 1.0 {
		t.Errorf("LoadImbalance = %v, want 1.0 (one executed task per worker)", imb)
	}
}
