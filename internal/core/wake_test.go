package core

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"kstm/internal/stm"
)

// Wake-protocol tests (DESIGN.md §5.4). The park/wake handshake replaced
// the poll+sleep backoff loop; these tests pin its three contracts — no
// lost wake (a submit racing a park always executes), no busy idle (a
// parked executor stops polling), and prompt lifecycle exits (Stop/Drain
// reach parked workers). Run them under -race: the handshake is exactly
// the kind of Dekker-style publication pattern the detector understands.

// waitParked blocks until n workers are parked (or the deadline trips).
func waitParked(t *testing.T, ex *Executor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ex.parked.Load() < int32(n) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers parked after 5s", ex.parked.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWakeLatencyBudget pins the tentpole's win: submit-to-first-execute on
// a fully parked executor must come in well under the old 100µs sleep
// quantum the backoff loop cost (a task could previously eat the whole
// quantum before its first poll). Median over many round trips, so one
// scheduler hiccup cannot flake the gate; the budget is the FULL Submit +
// execute + Wait round trip, which strictly bounds the wake itself.
func TestWakeLatencyBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("latency budgets are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	ex := hotpathExecutor(t, 1)
	ctx := context.Background()
	const rounds = 200
	lat := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		waitParked(t, ex, 1)
		start := time.Now()
		if _, err := ex.Submit(ctx, Task{Key: 1, Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	median := lat[len(lat)/2]
	// The old poll+park loop put the EXPECTED idle pickup at ~50µs and the
	// worst case at the full 100µs quantum. The event-driven median must
	// beat the old quantum outright; in practice it lands around a few µs
	// (one futex wake), and the generous bound only absorbs CI-runner
	// scheduling noise.
	if median >= 100*time.Microsecond {
		t.Fatalf("parked-executor Submit median latency %v, want < 100µs (old park quantum)", median)
	}
	t.Logf("parked-executor Submit latency: median %v, p90 %v, max %v",
		median, lat[len(lat)*9/10], lat[len(lat)-1])
}

// TestIdleExecutorNoPolling is the idle-CPU gate: once every worker is
// parked, the scheduler-state sample (EmptyPolls) must stay flat — the old
// loop re-polled every backoffPark (100µs) per worker, ~500 polls per
// worker over this window.
func TestIdleExecutorNoPolling(t *testing.T) {
	ex := hotpathExecutor(t, 4)
	ctx := context.Background()
	// Touch every worker once so the test covers post-work parking, not
	// just the initial park.
	for i := 0; i < 64; i++ {
		if _, err := ex.Submit(ctx, Task{Key: uint64(i) & 65535, Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, ex, 4)
	before := ex.Stats().EmptyPolls
	time.Sleep(50 * time.Millisecond)
	delta := ex.Stats().EmptyPolls - before
	// A parked worker polls zero times; allow a straggler that was counted
	// mid-park when the snapshot landed.
	if delta > 4 {
		t.Fatalf("parked executor accumulated %d empty polls over 50ms, want ~0", delta)
	}
}

// TestNoLostWake hammers the enqueue-racing-park window: one worker, a few
// producers, and deliberate idle gaps so the worker parks between bursts.
// Every Submit is synchronous — a lost wake would hang it (until the test
// deadline) because nothing else would ever nudge the parked worker.
func TestNoLostWake(t *testing.T) {
	ex := hotpathExecutor(t, 1)
	ctx := context.Background()
	const producers = 4
	const perProducer = 300
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := ex.Submit(ctx, Task{Key: uint64(i) & 65535, Op: OpNoop}); err != nil {
					t.Error(err)
					return
				}
				if i%16 == p {
					// Idle gap: outlast parkSpins so the worker actually
					// parks and the next Submit exercises the wake path.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestStopWhileParked: Stop must reach workers blocked on their wake
// tokens, not just ones mid-poll.
func TestStopWhileParked(t *testing.T) {
	ex := hotpathExecutor(t, 4)
	waitParked(t, ex, 4)
	done := make(chan error, 1)
	go func() { done <- ex.Stop() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on a parked executor")
	}
}

// TestDrainWhileParked: Drain on an idle (all-parked) executor must return
// promptly — the drain path blocks on the drainWake event, and parked
// draining workers exit on the broadcast.
func TestDrainWhileParked(t *testing.T) {
	ex := hotpathExecutor(t, 4)
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if _, err := ex.Submit(ctx, Task{Key: uint64(i), Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	}
	waitParked(t, ex, 4)
	done := make(chan error, 1)
	go func() { done <- ex.Drain() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung on a parked executor")
	}
}

// TestDrainWithInflightWhileParked: Drain while tasks are still executing
// must complete them all; the LAST finisher's decInflight — not a poll —
// signals the drain.
func TestDrainWithInflightWhileParked(t *testing.T) {
	var executed sync.WaitGroup
	ex, err := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
			time.Sleep(time.Millisecond)
			executed.Done()
			return nil, nil
		})),
		WithWorkers(2),
		WithSchedulerKind(SchedFixed, 0, 65535),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Stop() })
	const n = 16
	executed.Add(n)
	for i := 0; i < n; i++ {
		if _, err := ex.SubmitAsync(context.Background(), Task{Key: uint64(i), Op: OpNoop}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	executed.Wait() // Drain returned ⇒ every task ran; Wait must not block
}

// TestBackpressureWakeUnderDepthBound: a tiny queue bound with many blocked
// submitters exercises waitSpace/signalSpace — every submitter must
// eventually be admitted (space tokens chain waiter-to-waiter), and no two
// waiters may livelock ping-ponging a token over a still-full queue.
func TestBackpressureWakeUnderDepthBound(t *testing.T) {
	ex, err := NewExecutor(
		WithWorkload(WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
			time.Sleep(50 * time.Microsecond)
			return nil, nil
		})),
		WithWorkers(1),
		WithSchedulerKind(SchedFixed, 0, 65535),
		WithQueueDepth(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Stop() })
	ctx := context.Background()
	const producers = 8
	const perProducer = 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := ex.Submit(ctx, Task{Key: 1, Op: OpNoop}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("backpressure waiters hung under the depth bound")
	}
}
