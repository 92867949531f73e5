package core

import (
	"context"
	"errors"
	"runtime"
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
	// total reads the hot key's state back after the run.
	total func(t *testing.T) int64
}

const rigHotKey = 20000 // moves from worker 0 to worker 1 in the migration rig

// newMigrationRig forces one re-partition and leaves its hand-off blocked at
// stage: "drain" (the old owner is pinned inside a task, so the drain barrier
// cannot run), "handoff" (inside ExtractRanges) or "install" (inside the new
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
		factory.extractGate = newEntryGate()
		entered = factory.extractGate.entered
		rig.open = sync.OnceFunc(func() { close(factory.extractGate.open) })
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
		if err := submitCallback(ex, ctx, Task{Key: 1, Op: OpNoop}, rig.log.track("pin")); err != nil {
			t.Fatal(err)
		}
		<-factory.execGate.entered
	} else {
		forceRepartition(t, ctx, ex, 1)
		// A Submit returns once its task settles, a moment before the worker
		// retires it from the in-flight count: let the last one retire, so
		// the rows' InFlight checks count only what they submit.
		waitFor(t, "setup tasks retired", func() bool { return ex.Stats().InFlight == 0 })
	}
	waitFor(t, "fence install", func() bool { return ex.migr.fence.Load() != nil })
	if entered != nil {
		<-entered
	}
	return rig
}

// newSplitRig pre-splits one key and leaves an epoch merge blocked at
// stage: "drain" (a worker is pinned inside a task) or "handoff" (inside
// ApplyMerged). The lookup that got the epoch going is captured and tracked
// as "captured".
func newSplitRig(t *testing.T, stage string, opts ...Option) *holdRig {
	t.Helper()
	const hot, cold = 3, 6
	w := &gatedCounterWorkload{counterWorkload: counterWorkload{c: txds.NewCounters(8)}}
	rig := &holdRig{hot: Task{Key: hot, Op: OpLookup}, captured: 1}
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
		WithSplitPhase(SplitCoalesce(0)),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	tuneSplit(ex, func(c *splitConfig) { c.epoch = time.Hour }, hot)
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
		if err := submitCallback(ex, ctx, Task{Key: cold, Op: OpNoop}, rig.log.track("pin")); err != nil {
			t.Fatal(err)
		}
		<-w.execGate.entered
	}
	if err := submitCallback(ex, ctx, rig.hot, rig.log.track("captured")); err != nil {
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
			base := coreGoroutines()
			rig := row.build(t, row.stage)
			defer rig.open()
			ex := rig.ex
			held := []string{"parked"}
			if rig.captured > 0 {
				held = append(held, "captured")
			}
			if err := submitCallback(ex, context.Background(), rig.hot, rig.log.track("parked")); err != nil {
				t.Fatal(err)
			}
			before := ex.Stats()
			stopped := make(chan struct{})
			go func() {
				ex.Stop()
				close(stopped)
			}()
			// Stop may have to wait for a pinned worker or a held-open
			// hand-off or merge; the stopped state is what the epoch reacts to.
			<-ex.Stopped()
			rig.open()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop hung on a held-open epoch")
			}
			after := ex.Stats()
			if n := coreGoroutines(); n > base {
				t.Errorf("%d worker/coordinator goroutines alive after Stop, want at most %d", n, base)
			}
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

// orderLog records task settles in the order they happen.
type orderLog struct {
	mu    sync.Mutex
	names []string
	errs  map[string][]error
	vals  map[string]any
}

func (l *orderLog) track(name string) func(TaskResult) {
	return func(res TaskResult) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.errs == nil {
			l.errs, l.vals = make(map[string][]error), make(map[string]any)
		}
		l.names = append(l.names, name)
		l.errs[name] = append(l.errs[name], res.Err)
		l.vals[name] = res.Value
	}
}

// index is name's position in settle order, -1 if it never settled.
func (l *orderLog) index(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, n := range l.names {
		if n == name {
			return i
		}
	}
	return -1
}

// TestMigrationFullRing drives a migration epoch into full worker queues at
// both points where the epoch must enqueue and may not be refused: the drain
// barrier (the old owner's ring is full) and the release of held tasks (the
// new owner's ring is full). With depth 2, each owner is pinned inside a task
// with two more queued behind it. The epoch waits for space under the write
// gate; once the owners run, the barrier and every held task land, and the
// held tasks run after every pre-fence task. A Stop issued during either wait
// ends the wait without the pinned owners' help, and Stop returns with every
// task settled exactly once and no goroutine left behind.
func TestMigrationFullRing(t *testing.T) {
	const hot = rigHotKey // moves from worker 0 to worker 1
	for _, stopAt := range []string{"", "barrier", "release"} {
		name := "lands"
		if stopAt != "" {
			name = "stop-at-" + stopAt
		}
		t.Run(name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			extract := newEntryGate()
			openExtract := sync.OnceFunc(func() { close(extract.open) })
			factory := &mapFactory{extractGate: extract}
			ex, err := NewExecutor(
				WithWorkers(2),
				WithSharding(ShardPerWorker),
				WithWorkloadFactory(factory),
				WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(reproThreshold), WithReAdaptation()),
				WithMigration(MigrateOnRepartition),
				WithQueueDepth(2),
			)
			if err != nil {
				t.Fatal(err)
			}
			// Deferred first, so it runs last: a failing test opens every
			// gate before Stop joins the pinned workers.
			defer ex.Stop()
			pins := []*entryGate{newEntryGate(), newEntryGate()}
			open := []func(){sync.OnceFunc(func() { close(pins[0].open) }), sync.OnceFunc(func() { close(pins[1].open) })}
			for w, sh := range factory.shards {
				sh.execGate = pins[w]
			}
			defer open[1]()
			defer open[0]()
			defer openExtract()
			ctx := context.Background()
			if err := ex.Start(ctx); err != nil {
				t.Fatal(err)
			}
			var log orderLog
			submit := func(name string, task Task) {
				t.Helper()
				if err := submitCallback(ex, ctx, task, log.track(name)); err != nil {
					t.Fatalf("submit %s: %v", name, err)
				}
			}
			// Sample 1: the key the epoch moves.
			if _, err := ex.Submit(ctx, Task{Key: hot, Op: OpInsert, Arg: hot}); err != nil {
				t.Fatal(err)
			}
			// Samples 2-4: pin worker 1 (it keeps its high range) and fill
			// its ring behind the pin.
			submit("pin1", Task{Key: 60000, Op: OpNoop})
			<-pins[1].entered
			submit("C", Task{Key: 40000, Op: OpInsert, Arg: 40000})
			submit("D", Task{Key: 40001, Op: OpInsert, Arg: 40001})
			// Low-key mass, then pin worker 0 and fill its ring: B, the
			// threshold-th sample, triggers the re-partition that moves the
			// hot key's range. The migrator takes the write gate only after
			// B's dispatch left the read gate, so B is in the ring first.
			for i := 1; i <= reproThreshold-7; i++ {
				k := uint64(i*8) % 8192
				if _, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: uint32(k)}); err != nil {
					t.Fatal(err)
				}
			}
			submit("pin0", Task{Key: 1, Op: OpNoop})
			<-pins[0].entered
			submit("A", Task{Key: 2, Op: OpInsert, Arg: 2})
			submit("B", Task{Key: 3, Op: OpInsert, Arg: 3})
			if ex.migr.fence.Load() == nil {
				t.Fatal("the threshold-th sample installed no fence")
			}
			waitFor(t, "barrier waiting on worker 0's full ring", func() bool { return waiters(&ex.wakes[0].space) == 1 })

			stop := func() <-chan struct{} {
				stopped := make(chan struct{})
				go func() {
					ex.Stop()
					close(stopped)
				}()
				<-ex.Stopped()
				// The wait ends on the stopped state alone: both owners are
				// still pinned, so neither can make room.
				waitFor(t, "migrator exit", func() bool { return !ex.migr.active.Load() })
				openExtract()
				open[0]()
				open[1]()
				select {
				case <-stopped:
				case <-time.After(10 * time.Second):
					t.Fatal("Stop hung")
				}
				return stopped
			}
			var held []string
			if stopAt == "barrier" {
				stop()
			} else {
				// Free worker 0: the barrier lands behind A and B, they run, and
				// the hand-off stops at the extract gate. Meanwhile two tasks
				// on the hot key park on the fence (the hold queue's bound is
				// the depth, 2).
				open[0]()
				errc := make(chan error, 2)
				for _, h := range []string{"H1", "H2"} {
					held = append(held, h)
					go func() {
						errc <- submitCallback(ex, ctx, Task{Key: hot, Op: OpLookup, Arg: hot}, log.track(h))
					}()
					// One at a time, so the hold queue keeps H1 before H2.
					waitFor(t, h+" parked", func() bool { return heldCount(ex) == len(held) })
				}
				for range held {
					if err := <-errc; err != nil {
						t.Fatalf("held submit: %v", err)
					}
				}
				openExtract()
				waitFor(t, "release waiting on worker 1's full ring", func() bool { return waiters(&ex.wakes[1].space) == 1 })
				if stopAt == "release" {
					stop()
				} else {
					open[1]()
					waitFor(t, "migration epoch", func() bool { return ex.Stats().Migrations.Epochs == 1 })
					if err := ex.Drain(); err != nil {
						t.Fatal(err)
					}
				}
			}

			all := append([]string{"pin0", "pin1", "A", "B", "C", "D"}, held...)
			for _, name := range all {
				log.mu.Lock()
				errs := log.errs[name]
				log.mu.Unlock()
				if len(errs) != 1 {
					t.Errorf("%s settled %d times, want once", name, len(errs))
				}
			}
			if n := ex.Stats().InFlight; n != 0 {
				t.Errorf("InFlight = %d after the executor stopped", n)
			}
			switch stopAt {
			case "":
				for _, h := range held {
					for _, pre := range []string{"A", "B", "C", "D"} {
						if log.index(h) < log.index(pre) {
							t.Errorf("held %s ran before pre-fence task %s", h, pre)
						}
					}
					if v := log.vals[h]; v != true {
						t.Errorf("held %s read the hot key as %v, want true (moved state visible)", h, v)
					}
				}
				if log.index("H1") > log.index("H2") {
					t.Error("held tasks ran out of park order")
				}
			case "release":
				for _, h := range held {
					if errs := log.errs[h]; !errors.Is(errs[0], ErrStopped) {
						t.Errorf("held %s settled with %v, want ErrStopped", h, errs[0])
					}
				}
			}
			waitFor(t, "executor goroutines exit", func() bool { return runtime.NumGoroutine() <= goroutines })
		})
	}
}

// heldCount is the number of tasks parked on the current migration fence.
func heldCount(ex *Executor) int {
	f := ex.migr.fence.Load()
	if f == nil {
		return 0
	}
	n := 0
	for i := range f.held {
		h := &f.held[i]
		h.mu.Lock()
		n += len(h.held)
		h.mu.Unlock()
	}
	return n
}
