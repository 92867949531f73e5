package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm/internal/stm"
	"kstm/internal/txds"
)

// Caller-runs tests (DESIGN.md §5.4). A SubmitFuncOrRun caller borrows a
// parked owner — the CAS parked→borrowed — and runs the task on the worker's
// thread, shard and counters. These tests pin the three things that can go
// wrong: a wake lost to a borrowed word, two goroutines executing with one
// stm.Thread, and a lifecycle transition that forgets the borrowed task. Run
// them under -race.

// threadGuard is a workload that flags overlapping Execute calls on the same
// *stm.Thread — the ownership invariant's violation, seen from the workload.
// With a gate, OpNoop tasks hold their thread at it.
type threadGuard struct {
	gate     *entryGate
	busy     sync.Map // *stm.Thread → *atomic.Int32
	overlaps atomic.Int64
	runs     atomic.Int64
}

func (g *threadGuard) Execute(th *stm.Thread, t Task) (any, error) {
	c, _ := g.busy.LoadOrStore(th, new(atomic.Int32))
	n := c.(*atomic.Int32)
	if n.Add(1) != 1 {
		g.overlaps.Add(1)
	}
	// Hold the thread across a yield, so an overlapping user has a window.
	runtime.Gosched()
	if t.Op == OpNoop {
		g.gate.pass()
	}
	n.Add(-1)
	g.runs.Add(1)
	return uint64(t.Arg) + 1, nil
}

func startExecutor(t *testing.T, opts ...Option) *Executor {
	t.Helper()
	ex, err := NewExecutor(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Stop() })
	return ex
}

// borrowChurn drives one worker with borrowers (SubmitFuncOrRun, depth 1)
// and async submitters (SubmitAsync futures and SubmitFunc callbacks) on its
// keys, with idle gaps so the worker parks and unparks throughout. It returns
// the per-task settle counts, indexed by Task.Arg.
func borrowChurn(t *testing.T, ex *Executor, borrowers, asyncs, rounds int) []atomic.Int32 {
	t.Helper()
	total := (borrowers + asyncs) * rounds
	settled := make([]atomic.Int32, total)
	cb := func(res TaskResult) {
		if res.Err != nil {
			t.Errorf("task %d settled with %v", res.Task.Arg, res.Err)
		}
		settled[res.Task.Arg].Add(1)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < borrowers+asyncs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				arg := uint32(g*rounds + r)
				task := Task{Key: uint64(arg) % 1024, Op: OpLookup, Arg: arg}
				switch {
				case g < borrowers:
					res, ran, err := ex.SubmitFuncOrRun(ctx, task, 0, cb)
					if err != nil {
						t.Error(err)
						return
					}
					if ran {
						if res.Err != nil || res.Value != uint64(arg)+1 {
							t.Errorf("borrowed task %d: %v, %v", arg, res.Value, res.Err)
						}
						settled[arg].Add(1)
					}
				case r%2 == 0:
					fut, err := ex.SubmitAsync(ctx, task)
					if err != nil {
						t.Error(err)
						return
					}
					res, err := fut.Wait(ctx)
					if err != nil || res.Value != uint64(arg)+1 {
						t.Errorf("async task %d: %v, %v", arg, res.Value, err)
					}
					settled[arg].Add(1)
				default:
					if err := ex.SubmitFunc(ctx, task, cb); err != nil {
						t.Error(err)
						return
					}
				}
				// Idle gap, varied per goroutine and round: the worker often
				// outlasts parkSpins and parks, and the next arrivals —
				// borrowers and enqueuers alike — race for it.
				time.Sleep(time.Duration(50+(r*37+g*11)%300) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every task settled and in-flight at zero", func() bool {
		if ex.Stats().InFlight != 0 {
			return false
		}
		for i := range settled {
			if settled[i].Load() == 0 {
				return false
			}
		}
		return true
	})
	return settled
}

// TestBorrowNoLostWake: borrowers and async submitters share one worker for
// many rounds. An enqueue that lands while the worker is borrowed wakes
// nobody; release must — otherwise a future or callback never settles and
// the wait times out.
func TestBorrowNoLostWake(t *testing.T) {
	ex := startExecutor(t, WithWorkload(&threadGuard{}), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
	const borrowers, asyncs, rounds = 3, 3, 400
	settled := borrowChurn(t, ex, borrowers, asyncs, rounds)
	for i := range settled {
		if n := settled[i].Load(); n != 1 {
			t.Fatalf("task %d settled %d times, want exactly once", i, n)
		}
	}
	st := ex.Stats()
	if total := uint64((borrowers + asyncs) * rounds); st.Completed != total || st.Submitted != total {
		t.Fatalf("Completed/Submitted = %d/%d, want %d each", st.Completed, st.Submitted, total)
	}
	if st.Borrowed == 0 {
		t.Fatal("no task was borrowed — the test did not exercise caller-runs")
	}
	t.Logf("borrowed %d of %d", st.Borrowed, st.Completed)
}

// TestBorrowThreadExclusive: no two goroutines ever execute with the worker's
// stm.Thread at once. A worker that leaves its park while borrowed — here
// through a stale wake token, which an aborted park can leave behind — must
// wait out the borrower before running anything; without reclaim's wait it
// runs the queued task beside the borrowed one. Then the same check under
// borrowers, queued traffic and park/unpark churn.
func TestBorrowThreadExclusive(t *testing.T) {
	ctx := context.Background()
	t.Run("stale token", func(t *testing.T) {
		g := &threadGuard{gate: newEntryGate()}
		ex := startExecutor(t, WithWorkload(g), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
		waitParked(t, ex, 1)
		borrowed := make(chan bool, 1)
		go func() {
			_, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: 1, Op: OpNoop}, 0, func(TaskResult) {})
			borrowed <- ran && err == nil
		}()
		<-g.gate.entered
		select {
		case ex.wakes[0].token <- struct{}{}:
		default:
			t.Fatal("wake token already pending")
		}
		queued, err := ex.SubmitAsync(ctx, Task{Key: 2, Op: OpLookup, Arg: 5})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if _, ok := queued.Poll(); ok {
			t.Error("a queued task ran while its worker was borrowed")
		}
		close(g.gate.open)
		if !<-borrowed {
			t.Fatal("the gated task was not borrowed")
		}
		if res, err := queued.Wait(ctx); err != nil || res.Value != uint64(6) {
			t.Fatalf("queued task: %v, %v", res.Value, err)
		}
		if n := g.overlaps.Load(); n != 0 {
			t.Fatalf("%d overlapping Execute calls on one stm.Thread", n)
		}
	})
	t.Run("churn", func(t *testing.T) {
		g := &threadGuard{}
		ex := startExecutor(t, WithWorkload(g), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
		borrowChurn(t, ex, 4, 2, 600)
		if n := g.overlaps.Load(); n != 0 {
			t.Fatalf("%d overlapping Execute calls on one stm.Thread (of %d)", n, g.runs.Load())
		}
		if ex.Stats().Borrowed == 0 {
			t.Fatal("no task was borrowed — the test did not exercise caller-runs")
		}
	})
}

// heldWorkload blocks OpNoop tasks at an entry gate and answers the rest.
type heldWorkload struct{ gate *entryGate }

func (w *heldWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	if t.Op == OpNoop {
		w.gate.pass()
	}
	return uint64(t.Arg) + 1, nil
}

// TestBorrowVsStopDrain: the borrower is held inside its task while Drain —
// and, separately, Stop — is called. Drain waits for the borrowed task; Stop
// returns only after it settles (the worker cannot exit while borrowed); the
// worker goroutine exits, InFlight returns to zero, and no goroutine leaks.
func TestBorrowVsStopDrain(t *testing.T) {
	for _, name := range []string{"Drain", "Stop"} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			w := &heldWorkload{gate: newEntryGate()}
			ex, err := NewExecutor(WithWorkload(w), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			waitParked(t, ex, 1)
			type outcome struct {
				res TaskResult
				ran bool
				err error
			}
			borrowed := make(chan outcome, 1)
			go func() {
				res, ran, err := ex.SubmitFuncOrRun(context.Background(), Task{Key: 1, Op: OpNoop, Arg: 41}, 0, func(TaskResult) {
					t.Error("callback ran for a borrowed task")
				})
				borrowed <- outcome{res, ran, err}
			}()
			<-w.gate.entered
			if n := ex.Stats().Borrowed; n != 1 {
				t.Fatalf("Borrowed = %d, want 1", n)
			}
			halted := make(chan error, 1)
			go func() {
				if name == "Drain" {
					halted <- ex.Drain()
				} else {
					halted <- ex.Stop()
				}
			}()
			select {
			case <-halted:
				t.Fatalf("%s returned while the borrowed task was still running", name)
			case <-time.After(20 * time.Millisecond):
			}
			close(w.gate.open)
			select {
			case err := <-halted:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s hung behind a borrowed task", name)
			}
			o := <-borrowed
			if o.err != nil || !o.ran || o.res.Err != nil || o.res.Value != uint64(42) {
				t.Fatalf("borrowed task: ran=%v value=%v err=%v/%v", o.ran, o.res.Value, o.err, o.res.Err)
			}
			if st := ex.Stats(); st.InFlight != 0 || st.Completed != 1 {
				t.Fatalf("after %s: InFlight=%d Completed=%d, want 0 and 1", name, st.InFlight, st.Completed)
			}
			if _, ran, err := ex.SubmitFuncOrRun(context.Background(), Task{Key: 1}, 0, func(TaskResult) {}); ran || err != ErrNotRunning {
				t.Fatalf("submit after %s: ran=%v err=%v, want ErrNotRunning", name, ran, err)
			}
			waitFor(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestBorrowDeclined: every configuration the borrow is declined under queues
// the task instead — ran is false, done settles it, Borrowed stays zero — and
// the results equal the plain Submit path's on an identical executor.
func TestBorrowDeclined(t *testing.T) {
	dict := []Task{
		{Key: 10, Op: OpInsert, Arg: 10}, {Key: 10, Op: OpInsert, Arg: 10},
		{Key: 10, Op: OpLookup, Arg: 10}, {Key: 40000, Op: OpInsert, Arg: 40000},
		{Key: 10, Op: OpDelete, Arg: 10}, {Key: 10, Op: OpLookup, Arg: 10},
	}
	counters := []Task{
		{Key: 3, Op: OpAdd, Arg: 5}, {Key: 3, Op: OpLookup}, {Key: 12, Op: OpAdd, Arg: 2},
		{Key: 3, Op: OpAdd, Arg: 4}, {Key: 3, Op: OpLookup}, {Key: 12, Op: OpLookup},
	}
	cases := []struct {
		name string
		ops  []Task
		opts func() []Option
	}{
		{"migration", dict, func() []Option {
			return []Option{WithWorkers(2), WithSharding(ShardPerWorker), WithWorkloadFactory(&mapFactory{}),
				WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(reproThreshold), WithReAdaptation()),
				WithMigration(MigrateOnRepartition)}
		}},
		{"split", counters, func() []Option {
			return []Option{WithWorkers(2), WithWorkload(&counterWorkload{c: txds.NewCounters(16)}),
				WithSchedulerKind(SchedFixed, 0, 15), WithSplitPhase()}
		}},
		{"worksteal", dict, func() []Option {
			return []Option{WithWorkers(2), WithWorkloadFactory(&mapFactory{}),
				WithSchedulerKind(SchedFixed, 0, 65535), WithWorkSteal(true)}
		}},
		{"sortbatch", dict, func() []Option {
			return []Option{WithWorkers(2), WithWorkloadFactory(&mapFactory{}),
				WithSchedulerKind(SchedFixed, 0, 65535), WithSortBatch(8)}
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := startExecutor(t, tc.opts()...)
			ref := startExecutor(t, tc.opts()...)
			for i, task := range tc.ops {
				waitParked(t, ex, 2)
				settled := make(chan TaskResult, 1)
				_, ran, err := ex.SubmitFuncOrRun(ctx, task, 0, func(res TaskResult) { settled <- res })
				if err != nil || ran {
					t.Fatalf("op %d: ran=%v err=%v, want a queued task", i, ran, err)
				}
				got := <-settled
				want, _ := ref.Submit(ctx, task)
				if got.Value != want.Value || got.Err != want.Err {
					t.Fatalf("op %d: %v/%v, plain Submit gives %v/%v", i, got.Value, got.Err, want.Value, want.Err)
				}
			}
			if n := ex.Stats().Borrowed; n != 0 {
				t.Fatalf("Borrowed = %d under %s, want 0", n, tc.name)
			}
		})
	}

	t.Run("busy owner", func(t *testing.T) {
		w := &heldWorkload{gate: newEntryGate()}
		ex := startExecutor(t, WithWorkload(w), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
		held, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpNoop})
		if err != nil {
			t.Fatal(err)
		}
		<-w.gate.entered
		settled := make(chan TaskResult, 1)
		_, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: 2, Op: OpLookup, Arg: 7}, 0, func(res TaskResult) { settled <- res })
		if err != nil || ran {
			t.Fatalf("behind a busy owner: ran=%v err=%v, want a queued task", ran, err)
		}
		close(w.gate.open)
		if res := <-settled; res.Value != uint64(8) || res.Err != nil {
			t.Fatalf("queued task: %v, %v", res.Value, res.Err)
		}
		if _, err := held.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if n := ex.Stats().Borrowed; n != 0 {
			t.Fatalf("Borrowed = %d behind a busy owner, want 0", n)
		}
	})

	t.Run("non-empty queue", func(t *testing.T) {
		var mu sync.Mutex
		var order []uint32
		ex := startExecutor(t, WithWorkload(WorkloadFunc(func(_ *stm.Thread, task Task) (any, error) {
			mu.Lock()
			order = append(order, task.Arg)
			mu.Unlock()
			return uint64(task.Arg) + 1, nil
		})), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 65535))
		waitParked(t, ex, 1)
		// Queue a task behind the parked worker's back — accepted and counted,
		// but not woken for — so the borrower's CAS succeeds on a worker with
		// queued work.
		ex.inflight.Add(1)
		queued := newFuture()
		ex.queues[0].Put(envelope{task: Task{Key: 1, Arg: 1}, fut: queued, ctx: ctx, enq: time.Since(ex.base)})
		settled := make(chan TaskResult, 1)
		_, ran, err := ex.SubmitFuncOrRun(ctx, Task{Key: 1, Arg: 2}, 0, func(res TaskResult) { settled <- res })
		if err != nil || ran {
			t.Fatalf("with work queued: ran=%v err=%v, want a queued task", ran, err)
		}
		if res := <-settled; res.Value != uint64(3) {
			t.Fatalf("queued task: %v, %v", res.Value, res.Err)
		}
		if res, err := queued.Wait(ctx); err != nil || res.Value != uint64(2) {
			t.Fatalf("task queued first: %v, %v", res.Value, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("execution order %v, want [1 2]: the borrower jumped queued work", order)
		}
		if n := ex.Stats().Borrowed; n != 0 {
			t.Fatalf("Borrowed = %d with work queued, want 0", n)
		}
	})
}
