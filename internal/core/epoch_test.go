package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kstm/internal/splitphase"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// Tests of the shared epoch skeleton (epoch.go), each a table over its two
// users: the migration fence and the split key.

// entryGate blocks its callers until opened and reports the first arrival,
// so a test can hold a hand-off callback open and know it is inside.
type entryGate struct {
	entered chan struct{}
	open    chan struct{}
	once    sync.Once
}

func newEntryGate() *entryGate {
	return &entryGate{entered: make(chan struct{}), open: make(chan struct{})}
}

// pass is a no-op on a nil gate.
func (g *entryGate) pass() {
	if g == nil {
		return
	}
	g.once.Do(func() { close(g.entered) })
	<-g.open
}

// gatedCounterWorkload is counterWorkload with the same two holds mapShard
// has: execGate pins a worker inside an OpNoop, mergeGate holds the epoch
// merge open inside ApplyMerged.
type gatedCounterWorkload struct {
	counterWorkload
	execGate  *entryGate
	mergeGate *entryGate
}

func (w *gatedCounterWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	if t.Op == OpNoop {
		w.execGate.pass()
	}
	return w.counterWorkload.Execute(th, t)
}

func (w *gatedCounterWorkload) ApplyMerged(th *stm.Thread, key uint64, agg splitphase.Agg) error {
	w.mergeGate.pass()
	return w.counterWorkload.ApplyMerged(th, key, agg)
}

// settleLog records every settle of the tasks it tracks, so a test can assert
// "exactly once" rather than "at least once".
type settleLog struct {
	mu   sync.Mutex
	errs map[string][]error
}

func (l *settleLog) track(name string) func(TaskResult) {
	return func(res TaskResult) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.errs == nil {
			l.errs = make(map[string][]error)
		}
		l.errs[name] = append(l.errs[name], res.Err)
	}
}

func (l *settleLog) of(name string) []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]error(nil), l.errs[name]...)
}

// holdRig is a started executor whose epoch is held open mid-run, so tasks
// offered as hot park on a hold queue nothing will capture or release until
// open is called.
type holdRig struct {
	ex   *Executor
	hot  Task
	open func()
	// captured counts tasks the rig itself parked to get the epoch going and
	// the coordinator has already captured (they stay in flight until open).
	captured int64
	log      settleLog
	// done reports that the epoch's coordinator has nothing left to do after
	// a stop (the migrator runs on its own goroutine; Stop does not wait it).
	done func() bool
	// total reads the hot key's state back after the run.
	total func(t *testing.T) int64
}

const rigHotKey = 20000 // moves from worker 0 to worker 1 in the migration rig

// newMigrationRig forces one re-partition and leaves its hand-off blocked at
// stage: "drain" (the old owner is pinned inside a task, so the drain barrier
// cannot run), "handoff" (inside ExtractRange) or "install" (inside the new
// owner's InstallKeys, the hand-off's last step).
func newMigrationRig(t *testing.T, stage string, opts ...Option) *holdRig {
	t.Helper()
	factory := &mapFactory{}
	rig := &holdRig{hot: Task{Key: rigHotKey, Op: OpLookup, Arg: rigHotKey}}
	var entered <-chan struct{}
	switch stage {
	case "drain":
		factory.execGate = newEntryGate()
		rig.open = sync.OnceFunc(func() { close(factory.execGate.open) })
	case "handoff":
		gate := make(chan struct{})
		factory.extractGate = gate
		rig.open = sync.OnceFunc(func() { close(gate) })
	case "install":
		factory.installGate = newEntryGate()
		entered = factory.installGate.entered
		rig.open = sync.OnceFunc(func() { close(factory.installGate.open) })
	}
	ex, err := NewExecutor(append([]Option{
		WithWorkers(2),
		WithSharding(ShardPerWorker),
		WithWorkloadFactory(factory),
		WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(reproThreshold), WithReAdaptation()),
		WithMigration(MigrateOnRepartition),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rig.ex = ex
	rig.done = func() bool { return !ex.migr.active.Load() }
	rig.total = func(t *testing.T) int64 {
		var n int64
		for _, sh := range factory.shards {
			sh.mu.Lock()
			if sh.keys[rigHotKey] {
				n++
			}
			sh.mu.Unlock()
		}
		return n
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Submit(ctx, Task{Key: rigHotKey, Op: OpInsert, Arg: rigHotKey}); err != nil {
		t.Fatal(err)
	}
	if stage == "drain" {
		// The trigger itself pins the old owner: it is enqueued under the
		// read gate the migrator's quiesce waits on, so the barrier lands
		// behind it (in the queue, or in the batch the worker drained with
		// it — unexecuted either way).
		for i := 1; i < reproThreshold-1; i++ {
			k := uint64(i*8) % 8192
			if _, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: uint32(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.SubmitFunc(ctx, Task{Key: 1, Op: OpNoop}, rig.log.track("pin")); err != nil {
			t.Fatal(err)
		}
		<-factory.execGate.entered
	} else {
		forceRepartition(t, ctx, ex, 1)
	}
	waitFor(t, "fence install", func() bool { return ex.migr.fence.Load() != nil })
	if entered != nil {
		<-entered
	}
	return rig
}

// newSplitRig statically splits one key and leaves an epoch merge blocked at
// stage: "drain" (a worker is pinned inside a task) or "handoff" (inside
// ApplyMerged). The lookup that got the epoch going is captured and tracked
// as "captured".
func newSplitRig(t *testing.T, stage string, opts ...Option) *holdRig {
	t.Helper()
	const hot, cold = 3, 6
	w := &gatedCounterWorkload{counterWorkload: counterWorkload{c: txds.NewCounters(8)}}
	rig := &holdRig{hot: Task{Key: hot, Op: OpLookup}, captured: 1, done: func() bool { return true }}
	switch stage {
	case "drain":
		w.execGate = newEntryGate()
		rig.open = sync.OnceFunc(func() { close(w.execGate.open) })
	case "handoff":
		w.mergeGate = newEntryGate()
		rig.open = sync.OnceFunc(func() { close(w.mergeGate.open) })
	}
	ex, err := NewExecutor(append([]Option{
		WithWorkload(w),
		WithWorkers(2),
		WithSchedulerKind(SchedFixed, 0, 7),
		WithSplitPhase(SplitKeys(hot), SplitCoalesce(0), SplitEpoch(time.Hour)),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rig.ex = ex
	rig.total = func(t *testing.T) int64 {
		v, err := w.c.Value(ex.ShardSTM(0).NewThread(), hot)
		if err != nil {
			t.Fatal(err)
		}
		return v.Sum
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// One absorbed Add: the accumulator is dirty, so the epoch has a merge to
	// install and the final sum shows whether the delta survived.
	if _, err := ex.Submit(ctx, Task{Key: hot, Op: OpAdd, Arg: 1}); err != nil {
		t.Fatal(err)
	}
	if stage == "drain" {
		if err := ex.SubmitFunc(ctx, Task{Key: cold, Op: OpNoop}, rig.log.track("pin")); err != nil {
			t.Fatal(err)
		}
		<-w.execGate.entered
	}
	if err := ex.SubmitFunc(ctx, rig.hot, rig.log.track("captured")); err != nil {
		t.Fatal(err)
	}
	sk := ex.split.lookup(hot)
	waitFor(t, "hold-queue capture", func() bool { return sk.hold.empty() })
	if stage == "handoff" {
		<-w.mergeGate.entered
	}
	return rig
}

type rigRow struct {
	name, stage string
	build       func(t *testing.T, stage string, opts ...Option) *holdRig
}

// TestHoldQueueBackpressure pins the hold queues' flow control, for a moved
// range's fence and for a split key alike: a hold queue is bounded by the
// queue depth, and overflow follows the executor's backpressure policy
// instead of absorbing unbounded load — or worse, leaking onto a worker queue
// mid-epoch.
func TestHoldQueueBackpressure(t *testing.T) {
	const depth = 2
	rows := []rigRow{
		{name: "migration fence", stage: "handoff", build: newMigrationRig},
		{name: "split key", stage: "handoff", build: newSplitRig},
	}
	// fill parks depth tasks on the held queue and returns their futures.
	fill := func(t *testing.T, rig *holdRig) []*Future {
		t.Helper()
		var parked []*Future
		for i := 0; i < depth; i++ {
			fut, err := rig.ex.SubmitAsync(context.Background(), rig.hot)
			if err != nil {
				t.Fatalf("park %d: %v", i, err)
			}
			parked = append(parked, fut)
		}
		return parked
	}
	// overflow offers one more task from its own goroutine and asserts the
	// submitter is still waiting after a grace period; the channel carries
	// the task's fate — the submit error, or the completion error if it was
	// accepted after all.
	overflow := func(t *testing.T, rig *holdRig, ctx context.Context) <-chan error {
		t.Helper()
		errc := make(chan error, 1)
		go func() {
			fut, err := rig.ex.SubmitAsync(ctx, rig.hot)
			if err == nil {
				_, err = fut.Wait(context.Background())
			}
			errc <- err
		}()
		select {
		case err := <-errc:
			t.Fatalf("submit into a full hold queue returned %v, want it to wait", err)
		case <-time.After(20 * time.Millisecond):
		}
		return errc
	}
	idleQueues := func(t *testing.T, rig *holdRig) {
		t.Helper()
		for w, d := range rig.ex.Stats().QueueDepths {
			if d != 0 {
				t.Errorf("worker %d queue depth = %d: a held task reached a worker queue", w, d)
			}
		}
	}
	for _, row := range rows {
		t.Run(row.name+"/reject", func(t *testing.T) {
			rig := row.build(t, row.stage, WithQueueDepth(depth), WithBackpressure(BackpressureReject))
			defer rig.ex.Stop()
			defer rig.open()
			ctx := context.Background()
			parked := fill(t, rig)
			if _, err := rig.ex.SubmitAsync(ctx, rig.hot); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit past the bound = %v, want ErrQueueFull", err)
			}
			st := rig.ex.Stats()
			if st.Rejected != 1 {
				t.Errorf("Rejected = %d, want 1", st.Rejected)
			}
			if want := depth + rig.captured; st.InFlight != want {
				t.Errorf("InFlight = %d with %d tasks held, want %d", st.InFlight, want, want)
			}
			idleQueues(t, rig)
			rig.open()
			for i, fut := range parked {
				if res, err := fut.Wait(ctx); err != nil {
					t.Fatalf("parked %d settled with %v (res %+v)", i, err, res)
				}
			}
			if err := rig.ex.Drain(); err != nil {
				t.Fatal(err)
			}
			if n := rig.ex.Stats().InFlight; n != 0 {
				t.Errorf("InFlight = %d after Drain", n)
			}
		})
		t.Run(row.name+"/block-ctx", func(t *testing.T) {
			rig := row.build(t, row.stage, WithQueueDepth(depth))
			defer rig.ex.Stop()
			defer rig.open()
			parked := fill(t, rig)
			ctx, cancel := context.WithCancel(context.Background())
			errc := overflow(t, rig, ctx)
			cancel()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("blocked submit after cancel = %v, want context.Canceled", err)
			}
			if st, want := rig.ex.Stats(), depth+rig.captured; st.InFlight != want || st.Rejected != 0 {
				t.Errorf("InFlight = %d, Rejected = %d after the cancelled submit, want %d and 0", st.InFlight, st.Rejected, want)
			}
			idleQueues(t, rig)
			rig.open()
			for i, fut := range parked {
				if _, err := fut.Wait(context.Background()); err != nil {
					t.Fatalf("parked %d settled with %v", i, err)
				}
			}
			if err := rig.ex.Drain(); err != nil {
				t.Fatal(err)
			}
			if n := rig.ex.Stats().InFlight; n != 0 {
				t.Errorf("InFlight = %d after Drain", n)
			}
		})
		t.Run(row.name+"/block-stop", func(t *testing.T) {
			rig := row.build(t, row.stage, WithQueueDepth(depth))
			defer rig.open()
			parked := fill(t, rig)
			errc := overflow(t, rig, context.Background())
			stopped := make(chan struct{})
			go func() {
				rig.ex.Stop()
				close(stopped)
			}()
			// The blocked submitter gives up on the stopped state alone, before
			// the held-open epoch is released (or, when halt's sweep closes the
			// fence under it first, falls through to a queue halt abandons).
			if err := <-errc; !errors.Is(err, ErrStopped) {
				t.Fatalf("blocked submit after Stop = %v, want ErrStopped", err)
			}
			rig.open()
			<-stopped
			for i, fut := range parked {
				if _, err := fut.Wait(context.Background()); !errors.Is(err, ErrStopped) {
					t.Errorf("parked %d settled with %v, want ErrStopped", i, err)
				}
			}
			if n := rig.ex.Stats().InFlight; n != 0 {
				t.Errorf("InFlight = %d after Stop", n)
			}
		})
	}
}

// TestEpochStopBetweenPhases stops the executor while an epoch is held open
// at each point epoch.run can observe it — barriers pending, inside the
// hand-off, after the hand-off's last step — and asserts the skeleton's stop
// contract for both subsystems: every task the epoch was holding settles with
// ErrStopped exactly once, nothing stays in flight, no epoch counter moves
// once Stop has returned, and the state the hand-off was carrying is neither
// lost nor duplicated.
func TestEpochStopBetweenPhases(t *testing.T) {
	rows := []rigRow{
		{name: "migration", stage: "drain", build: newMigrationRig},
		{name: "migration", stage: "handoff", build: newMigrationRig},
		{name: "migration", stage: "install", build: newMigrationRig},
		{name: "split", stage: "drain", build: newSplitRig},
		{name: "split", stage: "handoff", build: newSplitRig},
	}
	for _, row := range rows {
		t.Run(row.name+"/"+row.stage, func(t *testing.T) {
			rig := row.build(t, row.stage)
			defer rig.open()
			ex := rig.ex
			held := []string{"parked"}
			if rig.captured > 0 {
				held = append(held, "captured")
			}
			if err := ex.SubmitFunc(context.Background(), rig.hot, rig.log.track("parked")); err != nil {
				t.Fatal(err)
			}
			before := ex.Stats()
			stopped := make(chan struct{})
			go func() {
				ex.Stop()
				close(stopped)
			}()
			// Stop may have to wait for a pinned worker or a held-open merge;
			// the stopped state is what the epoch reacts to.
			<-ex.Stopped()
			rig.open()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop hung on a held-open epoch")
			}
			after := ex.Stats()
			waitFor(t, "coordinator idle", rig.done)
			for _, name := range held {
				errs := rig.log.of(name)
				if len(errs) != 1 || !errors.Is(errs[0], ErrStopped) {
					t.Errorf("%s task settled %d times with %v, want once with ErrStopped", name, len(errs), errs)
				}
			}
			if after.InFlight != 0 {
				t.Errorf("InFlight = %d after Stop", after.InFlight)
			}
			if after.Migrations.Epochs != before.Migrations.Epochs || after.Split.MergedEpochs != before.Split.MergedEpochs {
				t.Errorf("an epoch completed across Stop: migrations %+v → %+v, split %+v → %+v",
					before.Migrations, after.Migrations, before.Split, after.Split)
			}
			if late := ex.Stats(); late.Migrations != after.Migrations || late.Split != after.Split ||
				late.Cancelled != after.Cancelled || late.Completed != after.Completed {
				t.Errorf("stats moved after Stop returned:\n at Stop %+v %+v cancelled=%d completed=%d\n later   %+v %+v cancelled=%d completed=%d",
					after.Migrations, after.Split, after.Cancelled, after.Completed,
					late.Migrations, late.Split, late.Cancelled, late.Completed)
			}
			if got := rig.total(t); got != 1 {
				t.Errorf("hot key reads %d after Stop, want 1 (state in hand-off lost or duplicated)", got)
			}
		})
	}
}
