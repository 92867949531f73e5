package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// parkedWorkers counts the workers whose idle word reads parked.
func parkedWorkers(ex *Executor) int {
	n := 0
	for i := range ex.wakes {
		if ex.wakes[i].idle.Load() == idleParked {
			n++
		}
	}
	return n
}

// waiters is the number of goroutines prepared to wait on ec and not yet
// notified.
func waiters(ec *eventCount) int { return int(uint32(ec.state.Load())) }

// waitParked blocks until n workers are parked (or the deadline trips).
func waitParked(t *testing.T, ex *Executor, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedWorkers(ex) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers parked after 5s", parkedWorkers(ex), n)
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

// idleExecutors returns two started 4-worker executors, a plain one and a
// split-phase one, each idle after 64 tasks (so the tests cover post-work
// parking, not just the initial park): every worker parked, and the split
// coordinator past splitIdleTicks quiet epochs, asleep in deep idle.
func idleExecutors(t *testing.T) []*Executor {
	t.Helper()
	split, _ := newSplitCounterExecutor(t, 64, 4, WithSplitPhase())
	tuneSplit(split, func(c *splitConfig) { c.epoch = 200 * time.Microsecond })
	if err := split.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { split.Stop() })
	exs := []*Executor{hotpathExecutor(t, 4), split}
	for _, ex := range exs {
		for i := 0; i < 64; i++ {
			if _, err := ex.Submit(context.Background(), Task{Key: uint64(i), Op: OpNoop}); err != nil {
				t.Fatal(err)
			}
		}
		waitParked(t, ex, 4)
	}
	for deadline := time.Now().Add(5 * time.Second); !coordinatorAsleep(split.split); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("split coordinator not in deep idle 5s after the last task")
		}
	}
	return exs
}

// coordinatorAsleep reports whether s's coordinator is blocked in its deep
// idle's eventCount.commitWait — the one wait that arms no timer.
func coordinatorAsleep(s *splitRunner) bool {
	loop := fmt.Sprintf("kstm/internal/core.(*splitRunner).loop(%p", s)
	for _, g := range goroutineStacks() {
		if strings.Contains(g, loop) {
			return strings.Contains(g, "kstm/internal/core.(*eventCount).commitWait(") &&
				strings.Contains(g, "kstm/internal/core.(*splitRunner).sleep(")
		}
	}
	return false
}

// TestIdleExecutorNoPolling is the idle-CPU gate: once every worker is
// parked, the scheduler-state sample (EmptyPolls) must stay flat — the old
// loop re-polled every backoffPark (100µs) per worker, ~500 polls per
// worker over this window — and a deep-idle split coordinator is never
// woken (its event's word does not move).
func TestIdleExecutorNoPolling(t *testing.T) {
	exs := idleExecutors(t)
	traffic := &exs[1].split.traffic
	var before [2]uint64
	for i, ex := range exs {
		before[i] = ex.Stats().EmptyPolls
	}
	word := traffic.state.Load()
	time.Sleep(50 * time.Millisecond)
	for i, ex := range exs {
		// A parked worker polls zero times; allow a straggler that was
		// counted mid-park when the snapshot landed.
		if delta := ex.Stats().EmptyPolls - before[i]; delta > 4 {
			t.Fatalf("parked executor %d accumulated %d empty polls over 50ms, want ~0", i, delta)
		}
	}
	if w := traffic.state.Load(); w != word || !coordinatorAsleep(exs[1].split) {
		t.Fatalf("deep-idle split coordinator woke over 50ms (event word %#x → %#x)", word, w)
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

// goroutineStacks returns the stacks of every goroutine but the caller's.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Split(string(buf), "\n\n")[1:]
}

// blockedSubmitters counts goroutines asleep inside dispatch: blocked, with
// no wake pending (a woken goroutine is runnable until it runs).
func blockedSubmitters() int {
	n := 0
	for _, g := range goroutineStacks() {
		header, _, _ := strings.Cut(g, "\n")
		if !strings.Contains(header, "[running]") && !strings.Contains(header, "[runnable]") &&
			strings.Contains(g, "kstm/internal/core.(*Executor).dispatch(") {
			n++
		}
	}
	return n
}

// coreSleepers returns the stacks of goroutines in a time.Sleep called from
// this package's non-test code.
func coreSleepers() []string {
	var out []string
	for _, g := range goroutineStacks() {
		lines := strings.Split(g, "\n")
		for j := 0; j+3 < len(lines); j++ {
			if strings.HasPrefix(lines[j], "time.Sleep(") &&
				strings.HasPrefix(lines[j+2], "kstm/internal/core.") &&
				!strings.Contains(lines[j+3], "_test.go") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// noSleepFor samples every goroutine's stack over d and fails the test if
// one of this package's goroutines is ever in time.Sleep.
func noSleepFor(t *testing.T, d time.Duration) {
	t.Helper()
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if s := coreSleepers(); len(s) > 0 {
			t.Fatalf("a goroutine polls in time.Sleep:\n%s", s[0])
		}
	}
}

// TestEventCount pins the primitive's contract: the zero value works, a
// notify with nobody waiting and a prepare/cancel pair allocate nothing, a
// committed waiter sleeps until a notify after its prepare, and a
// handshake bounced between two goroutines never loses a wake.
func TestEventCount(t *testing.T) {
	var ec eventCount
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() {
			ec.notify()
			ec.cancelWait(ec.prepareWait())
		}); n != 0 {
			t.Fatalf("notify + prepareWait + cancelWait: %v allocs, want 0", n)
		}
	}
	key := ec.prepareWait()
	woke := make(chan struct{})
	go func() {
		ec.commitWait(key)
		close(woke)
	}()
	select {
	case <-woke:
		t.Fatal("commitWait returned before any notify")
	case <-time.After(10 * time.Millisecond):
	}
	ec.notify()
	<-woke
	if n := waiters(&ec); n != 0 {
		t.Fatalf("%d waiters left after the wake", n)
	}
	// A notify between prepare and commit (or cancel) withdraws the waiter
	// itself: the commit returns at once, a cancel changes nothing.
	key = ec.prepareWait()
	ec.notify()
	ec.commitWait(key)
	key = ec.prepareWait()
	ec.notify()
	ec.cancelWait(key)
	if n := waiters(&ec); n != 0 {
		t.Fatalf("%d waiters left after notified waits", n)
	}

	// Ping-pong: each side waits for its turn and hands the turn over. A
	// lost wake deadlocks both.
	var turn atomic.Int64
	var evs [2]eventCount
	const rounds = 20000
	var wg sync.WaitGroup
	for side := int64(0); side < 2; side++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := side; r < rounds; r += 2 {
				evs[side].await(func() bool { return turn.Load() == r })
				turn.Store(r + 1)
				evs[1-side].notify()
			}
		}()
	}
	wg.Wait()
}

// TestStrandedSubmitter is the deterministic form of a closed-world hang
// under BackpressureBlock: a depth-1 queue, two submitters blocked for space,
// and a refill that the worker's batch loop drains. A dequeue that notified
// no one left the last submitter waiting on an empty queue that no one would
// dequeue again. The executor runs with its worker held off (never started),
// so the test is the queue's one consumer and steps the worker's dequeues.
func TestStrandedSubmitter(t *testing.T) {
	ex, err := NewExecutor(
		WithWorkload(&nopWorkload{}),
		WithWorkers(1),
		WithSchedulerKind(SchedFixed, 0, 65535),
		WithQueueDepth(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	ex.state.Store(stateRunning)
	t.Cleanup(func() { ex.Stop() })
	ctx := context.Background()
	submit := func() error { return submitCallback(ex, ctx, Task{Key: 1}, func(TaskResult) {}) }
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	for range 2 {
		go func() { errc <- submit() }()
	}
	waitFor(t, "two submitters blocked on the full queue", func() bool { return waiters(&ex.wakes[0].space) == 2 })
	// settle stands in for executing what the worker took.
	settle := func(envs ...envelope) {
		for _, env := range envs {
			ex.abandon(0, env, ErrStopped)
		}
	}
	admitted := func(what string) {
		t.Helper()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no blocked submitter admitted after the dequeue (stranded)", what)
		}
	}
	// The poll's dequeue frees the slot: one submitter refills it, the other
	// blocks again.
	env, ok := ex.dequeue(0)
	if !ok {
		t.Fatal("the poll's dequeue found the queue empty")
	}
	settle(env)
	admitted("first refill")
	waitFor(t, "the other submitter blocked on the refilled queue", func() bool {
		return waiters(&ex.wakes[0].space) == 1 && ex.queues[0].Full() && blockedSubmitters() == 1
	})
	// The batch loop takes the refill: it must admit the last one (whose
	// task the same batch may take too).
	batch, _ := ex.fill(0, nil, drainBatch)
	settle(batch...)
	admitted("batch-loop refill")
}

// TestHoldQueueWaitIsEventDriven: a submitter blocked on a full hold queue —
// a migration fence's or a split key's — sleeps on the executor-level event
// while the epoch is held open, instead of polling, and is woken by the
// epoch's release (or by Stop, with ErrStopped) within a bound far below one
// polling quantum per millisecond of epoch.
func TestHoldQueueWaitIsEventDriven(t *testing.T) {
	rows := []rigRow{
		{name: "migration fence", stage: "handoff", build: newMigrationRig},
		{name: "split key", stage: "handoff", build: newSplitRig},
	}
	for _, row := range rows {
		for _, end := range []string{"release", "stop"} {
			t.Run(row.name+"/"+end, func(t *testing.T) {
				rig := row.build(t, row.stage, WithQueueDepth(1))
				defer rig.ex.Stop()
				defer rig.open()
				ctx := context.Background()
				if _, err := rig.ex.SubmitAsync(ctx, rig.hot); err != nil {
					t.Fatal(err)
				}
				errc := make(chan error, 1)
				go func() {
					fut, err := rig.ex.SubmitAsync(ctx, rig.hot)
					if err == nil {
						_, err = fut.Wait(ctx)
					}
					errc <- err
				}()
				waitFor(t, "the overflow submitter blocked", func() bool { return waiters(&rig.ex.changed) == 1 })
				noSleepFor(t, 20*time.Millisecond)
				select {
				case err := <-errc:
					t.Fatalf("overflow submit returned %v with the epoch held open", err)
				default:
				}
				start := time.Now()
				want := error(nil)
				if end == "stop" {
					want = ErrStopped
					go rig.ex.Stop()
				} else {
					rig.open()
				}
				select {
				case err := <-errc:
					if !errors.Is(err, want) {
						t.Fatalf("overflow submit after %s = %v, want %v", end, err, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("overflow submitter not woken by %s", end)
				}
				t.Logf("woken %v after %s", time.Since(start), end)
			})
		}
	}
}

// TestStopWakesSubmitterBlockedOnFullQueue: Stop reaches a submitter blocked
// on a full worker queue while the owner is still pinned (no dequeue can
// wake it), and halt's sweep then settles the queued task without polling.
func TestStopWakesSubmitterBlockedOnFullQueue(t *testing.T) {
	gate := newEntryGate()
	ex := startExecutor(t, WithWorkload(&heldWorkload{gate: gate}), WithWorkers(1), WithQueueDepth(1))
	open := sync.OnceFunc(func() { close(gate.open) })
	defer open()
	ctx := context.Background()
	pin, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpNoop})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	queued, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpLookup})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpLookup})
		errc <- err
	}()
	waitFor(t, "the submitter blocked on the full queue", func() bool { return waiters(&ex.wakes[0].space) == 1 })
	stopped := make(chan struct{})
	go func() {
		ex.Stop()
		close(stopped)
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("blocked submit after Stop = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not wake the submitter blocked on the full queue")
	}
	// Stop now waits for the pinned worker; nothing may poll meanwhile.
	noSleepFor(t, 10*time.Millisecond)
	open()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung")
	}
	if _, err := pin.Wait(ctx); err != nil {
		t.Fatalf("pinned task: %v", err)
	}
	if _, err := queued.Wait(ctx); !errors.Is(err, ErrStopped) {
		t.Fatalf("queued task settled with %v, want ErrStopped", err)
	}
	if n := ex.Stats().InFlight; n != 0 {
		t.Fatalf("InFlight = %d after Stop", n)
	}
}

// TestIdleExecutorNoSleep: no goroutine of an idle executor, split phase
// included, is ever in time.Sleep — parked workers block on their work
// events, a deep-idle coordinator on its traffic event.
func TestIdleExecutorNoSleep(t *testing.T) {
	exs := idleExecutors(t)
	noSleepFor(t, 50*time.Millisecond)
	if !coordinatorAsleep(exs[1].split) {
		t.Fatal("split coordinator left deep idle with no traffic")
	}
}
