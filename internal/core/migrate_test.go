package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm/internal/hist"
	"kstm/internal/stm"
)

// mapShard is a minimal migratable shard for protocol tests: a mutex-guarded
// set keyed by Arg, with Key == Arg as the scheduling key. It implements
// both Workload and ShardStore; extractGate and installGate, when non-nil,
// block ExtractRanges / InstallKeys so tests can hold a migration open
// mid-hand-off, and execGate blocks OpNoop executions so tests can pin a
// worker (and the drain barrier behind it).
type mapShard struct {
	extractGate *entryGate
	installGate *entryGate
	execGate    *entryGate
	failInstall *atomic.Int32 // shared fault injector: >0 fails InstallKeys, decrementing

	mu   sync.Mutex
	keys map[uint32]bool
	n    int // executions on this shard
}

func (m *mapShard) Execute(th *stm.Thread, t Task) (any, error) {
	if t.Op == OpNoop {
		m.execGate.pass()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	switch t.Op {
	case OpInsert:
		added := !m.keys[t.Arg]
		m.keys[t.Arg] = true
		return added, nil
	case OpDelete:
		removed := m.keys[t.Arg]
		delete(m.keys, t.Arg)
		return removed, nil
	case OpLookup:
		return m.keys[t.Arg], nil
	default:
		return nil, nil
	}
}

func (m *mapShard) ExtractRanges(th *stm.Thread, ranges []Range) ([][]uint32, error) {
	m.extractGate.pass()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]uint32, len(ranges))
	for i, r := range ranges {
		for k := range m.keys {
			if uint64(k) >= r.Lo && uint64(k) <= r.Hi {
				out[i] = append(out[i], k)
				delete(m.keys, k)
			}
		}
	}
	return out, nil
}

func (m *mapShard) InstallKeys(th *stm.Thread, keys []uint32) error {
	m.installGate.pass()
	if m.failInstall != nil && m.failInstall.Add(-1) >= 0 {
		return errInjectedInstall
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, k := range keys {
		m.keys[k] = true
	}
	return nil
}

var errInjectedInstall = errors.New("injected install failure")

// mapFactory builds mapShards and exposes them as a StoreFactory.
type mapFactory struct {
	extractGate *entryGate
	installGate *entryGate
	execGate    *entryGate
	failInstall *atomic.Int32
	shards      []*mapShard
}

func (f *mapFactory) NewShard(worker int) Workload {
	sh := &mapShard{keys: make(map[uint32]bool), extractGate: f.extractGate, installGate: f.installGate,
		execGate: f.execGate, failInstall: f.failInstall}
	for len(f.shards) <= worker {
		f.shards = append(f.shards, nil)
	}
	f.shards[worker] = sh
	return sh
}

func (f *mapFactory) Store(worker int) ShardStore { return f.shards[worker] }

const reproThreshold = 1000

// newMigrationRepro builds the deterministic re-adaptation setup: 2 workers
// over the 16-bit key space, initial uniform partition (boundary 32767), a
// low adaptive threshold, re-adaptation on.
func newMigrationRepro(t *testing.T, factory *mapFactory) *Executor {
	t.Helper()
	ex, err := NewExecutor(
		WithWorkers(2),
		WithSharding(ShardPerWorker),
		WithWorkloadFactory(factory),
		WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(reproThreshold), WithReAdaptation()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// forceRepartition drives exactly one adaptation with all sampled mass in
// [0, 8191]: the PD boundary lands near 4096, so [~4096, 32767] moves from
// worker 0 to worker 1. Every submission is awaited, so the threshold-th
// dispatch triggers the adaptation deterministically. The final (trigger)
// task uses key 1 — a key that does NOT move — because the fence goes up
// inside that very dispatch: a moved-range trigger would park on its own
// fence, and a caller gating the hand-off would deadlock awaiting it.
func forceRepartition(t *testing.T, ctx context.Context, ex *Executor, already int) {
	t.Helper()
	for i := already; i < reproThreshold; i++ {
		k := uint64(i*8) % 8192
		if i == reproThreshold-1 {
			k = 1
		}
		if _, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMigrationVisibilityRepro is the deterministic reproducer for the
// visibility hole a sharded re-partition would open without migration, and
// the proof the hand-off closes it: a key inserted through the
// pre-adaptation owner stays visible after its range moves.
func TestMigrationVisibilityRepro(t *testing.T) {
	const probe = 20000 // owned by worker 0 before adaptation, worker 1 after
	factory := &mapFactory{}
	ex := newMigrationRepro(t, factory)
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// Pre-move insert through the old owner.
	if res, err := ex.Submit(ctx, Task{Key: probe, Op: OpInsert, Arg: probe}); err != nil || res.Value != true {
		t.Fatalf("probe insert: value=%v err=%v", res.Value, err)
	}
	// The probe key must really be in worker 0's shard.
	factory.shards[0].mu.Lock()
	pre := factory.shards[0].keys[probe]
	factory.shards[0].mu.Unlock()
	if !pre {
		t.Fatal("probe key not in worker 0's shard before adaptation")
	}
	forceRepartition(t, ctx, ex, 1) // the probe insert was sample #1
	sched := ex.Scheduler().(*Adaptive)
	waitFor(t, "adaptation", func() bool { return sched.Epochs() >= 1 })
	if w := sched.Partition().Pick(probe); w != 1 {
		t.Fatalf("probe key still owned by worker %d after adaptation", w)
	}
	waitFor(t, "migration epoch", func() bool { return ex.Stats().Migrations.Epochs >= 1 })
	res, err := ex.Submit(ctx, Task{Key: probe, Op: OpLookup, Arg: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if found := res.Value.(bool); !found {
		t.Error("pre-move insert invisible after re-partition — migration failed read-your-writes")
	}
	st := ex.Stats()
	if st.Migrations.Epochs < 1 {
		t.Errorf("Migrations.Epochs = %d, want >= 1", st.Migrations.Epochs)
	}
	if st.Migrations.KeysMoved < 1 {
		t.Errorf("Migrations.KeysMoved = %d, want >= 1 (the probe key moved)", st.Migrations.KeysMoved)
	}
	if st.Migrations.PauseNs == 0 {
		t.Error("Migrations.PauseNs = 0 after a completed migration")
	}
}

// TestMigrationFencesOnlyMovedRanges holds a migration open mid-hand-off (a
// gated ExtractRanges) and asserts the fence's scope: tasks for unmoved
// ranges keep completing while moved-range tasks park, and the parked tasks
// execute against the migrated state once released.
func TestMigrationFencesOnlyMovedRanges(t *testing.T) {
	const probe = 20000
	gate := newEntryGate()
	open := sync.OnceFunc(func() { close(gate.open) })
	factory := &mapFactory{extractGate: gate}
	ex := newMigrationRepro(t, factory)
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	defer open() // before Stop, which joins the hand-off
	if _, err := ex.Submit(ctx, Task{Key: probe, Op: OpInsert, Arg: probe}); err != nil {
		t.Fatal(err)
	}
	forceRepartition(t, ctx, ex, 1)
	sched := ex.Scheduler().(*Adaptive)
	waitFor(t, "adaptation", func() bool { return sched.Epochs() >= 1 })
	// The hand-off is now blocked inside ExtractRanges; the fence is up.
	<-gate.entered

	// Unmoved range: key 60000 belongs to worker 1 under both the uniform
	// and the adapted partition — it must complete while the fence is up.
	unmovedCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if res, err := ex.Submit(unmovedCtx, Task{Key: 60000, Op: OpInsert, Arg: 60000}); err != nil {
		t.Fatalf("unmoved-range task did not complete during hand-off: %v", err)
	} else if res.Worker != 1 {
		t.Fatalf("unmoved-range task ran on worker %d, want 1", res.Worker)
	}

	// Moved range: a lookup of the probe key parks on the hold queue.
	parked, err := ex.SubmitAsync(ctx, Task{Key: probe, Op: OpLookup, Arg: probe})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := parked.Poll(); done {
		t.Fatal("moved-range task completed while its range's state was in transit")
	}
	st := ex.Stats()
	if st.Migrations.Epochs != 0 {
		t.Errorf("Migrations.Epochs = %d before the hand-off finished", st.Migrations.Epochs)
	}

	// Release the hand-off: the parked task must now execute on the NEW
	// owner against the migrated state.
	open()
	res, err := parked.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != 1 {
		t.Errorf("unparked task ran on worker %d, want new owner 1", res.Worker)
	}
	if res.Value != true {
		t.Error("unparked lookup missed the migrated key — read-your-writes broken")
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st = ex.Stats()
	if st.Migrations.Epochs != 1 || st.Migrations.KeysMoved < 1 {
		t.Errorf("Migrations = %+v, want 1 epoch and >= 1 key moved", st.Migrations)
	}
	if err := ex.MigrationErr(); err != nil {
		t.Errorf("MigrationErr = %v", err)
	}
}

// TestMigrationCountersBeforeRelease: an epoch publishes its counters before
// it releases its held tasks, so once a held task has run — here, once Drain
// has returned — MigrationStats shows the epoch, with no wait. The lookup is
// held whenever the fence is still up, and a fence already down means the
// release, and the counters before it, happened.
func TestMigrationCountersBeforeRelease(t *testing.T) {
	const probe = 20000
	ex := newMigrationRepro(t, &mapFactory{})
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	if _, err := ex.Submit(ctx, Task{Key: probe, Op: OpInsert, Arg: probe}); err != nil {
		t.Fatal(err)
	}
	forceRepartition(t, ctx, ex, 1)
	if ex.Scheduler().(*Adaptive).Epochs() != 1 {
		t.Fatal("the threshold-th sample did not re-partition")
	}
	if _, err := ex.SubmitAsync(ctx, Task{Key: probe, Op: OpLookup, Arg: probe}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := ex.MigrationStats(); st.Epochs < 1 || st.KeysMoved < 1 {
		t.Fatalf("MigrationStats after Drain = %+v, want >= 1 epoch and >= 1 key moved", st)
	}
}

// TestMigrationStopMidHandoff stops the executor while a migration is held
// open inside ExtractRanges. Stop joins the hand-off, as it joins the split
// coordinator: it returns once the store call does, the parked task settles
// with ErrStopped, and no hand-off goroutine is left.
func TestMigrationStopMidHandoff(t *testing.T) {
	const probe = 20000
	gate := newEntryGate()
	open := sync.OnceFunc(func() { close(gate.open) })
	defer open()
	factory := &mapFactory{extractGate: gate}
	base := coreGoroutines()
	ex := newMigrationRepro(t, factory)
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Submit(ctx, Task{Key: probe, Op: OpInsert, Arg: probe}); err != nil {
		t.Fatal(err)
	}
	forceRepartition(t, ctx, ex, 1)
	<-gate.entered
	parked, err := ex.SubmitAsync(ctx, Task{Key: probe, Op: OpLookup, Arg: probe})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		ex.Stop()
		close(done)
	}()
	<-ex.Stopped()
	select {
	case <-done:
		t.Fatal("Stop returned while the hand-off was still inside ExtractRanges")
	case <-time.After(20 * time.Millisecond):
	}
	open()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung after the hand-off was released")
	}
	res, err := parked.Wait(context.Background())
	if !errors.Is(err, ErrStopped) || !errors.Is(res.Err, ErrStopped) {
		t.Fatalf("parked task settled with (%v, %v), want ErrStopped", res.Err, err)
	}
	if n := coreGoroutines(); n > base {
		t.Errorf("%d worker/hand-off goroutines alive after Stop, want at most %d", n, base)
	}
}

// TestMigrationNoMutationAfterStop holds a hand-off inside its install step
// and stops the executor: what Stop's return shows — the moved key's shard
// state and the migration counters — is final. Opening the install gate once
// Stop has returned must change neither.
func TestMigrationNoMutationAfterStop(t *testing.T) {
	rig := newMigrationRig(t, "install")
	defer rig.open()
	ex := rig.ex
	type snapshot struct {
		total int64
		migr  MigrationStats
	}
	read := func() snapshot { return snapshot{rig.total(t), ex.Stats().Migrations} }
	var atStop snapshot
	stopped := make(chan struct{})
	go func() {
		ex.Stop()
		atStop = read()
		close(stopped)
	}()
	<-ex.Stopped()
	// Give a Stop that does not join the hand-off time to return while the
	// install is still held.
	select {
	case <-stopped:
	case <-time.After(100 * time.Millisecond):
	}
	rig.open()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung after the install was released")
	}
	waitFor(t, "hand-off exit", func() bool { return !ex.migr.active.Load() })
	if late := read(); late != atStop {
		t.Errorf("state moved after Stop returned: at Stop %+v, after the install %+v", atStop, late)
	}
	if atStop.total != 1 {
		t.Errorf("hot key reads %d after Stop, want 1 (state in hand-off lost or duplicated)", atStop.total)
	}
}

// TestMigrationStatsMonotone is the -race satellite: concurrent submitters
// drive repeated re-adaptations with migration on while a sampler asserts
// the Migrations counters are monotone, and the final snapshot is
// consistent. The submitters alternate their key mass between the low and
// high ends of the space each window, so successive PD-partitions genuinely
// differ and every window moves ranges.
func TestMigrationStatsMonotone(t *testing.T) {
	const (
		workers    = 4
		submitters = 8
		perSub     = 3000
		threshold  = 500
	)
	factory := &mapFactory{}
	ex, err := NewExecutor(
		WithWorkers(workers),
		WithSharding(ShardPerWorker),
		WithWorkloadFactory(factory),
		WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(threshold), WithReAdaptation()),
		WithMigration(MigrateOnRepartition),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}

	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var prev MigrationStats
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			cur := ex.Stats().Migrations
			if cur.Epochs < prev.Epochs || cur.KeysMoved < prev.KeysMoved || cur.PauseNs < prev.PauseNs {
				t.Errorf("Migrations went backwards: %+v then %+v", prev, cur)
				return
			}
			prev = cur
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				// Alternate the hot region: phases of ~2 windows each.
				base := uint64(0)
				if (i/(2*threshold))%2 == 1 {
					base = 49152
				}
				k := base + uint64((c*perSub+i)*13)%16384
				if _, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: uint32(k)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	close(stopSampling)
	<-samplerDone

	st := ex.Stats()
	if st.Migrations.Epochs == 0 {
		t.Fatal("no migration epoch completed across repeated re-adaptations")
	}
	if st.Migrations.KeysMoved == 0 {
		t.Error("migrations completed but no keys moved")
	}
	if st.Migrations.PauseNs == 0 {
		t.Error("migrations completed with zero total pause")
	}
	// Consistency: every submitted task either completed or was cancelled,
	// and shard execution counts agree with the completion counters.
	if got := st.Completed + st.Cancelled; got != submitters*perSub {
		t.Errorf("completed+cancelled = %d, want %d", got, submitters*perSub)
	}
	var execs int
	for _, sh := range factory.shards {
		sh.mu.Lock()
		execs += sh.n
		sh.mu.Unlock()
	}
	if uint64(execs) != st.Completed {
		t.Errorf("shard executions %d != completed %d", execs, st.Completed)
	}
	if err := ex.MigrationErr(); err != nil {
		t.Errorf("MigrationErr = %v", err)
	}
}

// TestMigrationInstallFailureRestores pins the failure contract: when a
// range's install fails, its extracted keys are put back into the OLD
// shard (unread while the new partition routes the range elsewhere, but
// never lost) and the error surfaces through MigrationErr.
func TestMigrationInstallFailureRestores(t *testing.T) {
	const probe = 20000
	var fail atomic.Int32
	fail.Store(1) // first InstallKeys call (the new owner's) fails
	factory := &mapFactory{failInstall: &fail}
	ex := newMigrationRepro(t, factory)
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	if _, err := ex.Submit(ctx, Task{Key: probe, Op: OpInsert, Arg: probe}); err != nil {
		t.Fatal(err)
	}
	forceRepartition(t, ctx, ex, 1)
	waitFor(t, "hand-off attempt", func() bool { return ex.Stats().Migrations.Epochs >= 1 })
	if err := ex.MigrationErr(); !errors.Is(err, errInjectedInstall) {
		t.Fatalf("MigrationErr = %v, want the injected install failure", err)
	}
	// The probe key survived IN THE OLD SHARD: not moved, not lost.
	factory.shards[0].mu.Lock()
	inOld := factory.shards[0].keys[probe]
	factory.shards[0].mu.Unlock()
	factory.shards[1].mu.Lock()
	inNew := factory.shards[1].keys[probe]
	factory.shards[1].mu.Unlock()
	if !inOld || inNew {
		t.Fatalf("probe after failed install: old=%v new=%v, want restored to old only", inOld, inNew)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationValidation pins the configuration contract: under
// ShardPerWorker, SchedAdaptive always builds the migrator and needs a store
// for every shard, SchedFixed builds none, and every other routing is
// rejected; WithMigration only asserts a migrating configuration.
func TestMigrationValidation(t *testing.T) {
	plain := WorkloadFactoryFunc(func(worker int) Workload {
		return &mapShard{keys: map[uint32]bool{}}
	})
	sharded := func(opts ...Option) (*Executor, error) {
		return NewExecutor(append([]Option{WithWorkers(2), WithSharding(ShardPerWorker)}, opts...)...)
	}
	for name, build := range map[string]func() (*Executor, error){
		"migration without ShardPerWorker": func() (*Executor, error) {
			return NewExecutor(WithWorkers(2), WithWorkload(&nopWorkload{}), WithMigration(MigrateOnRepartition))
		},
		"adaptive without a StoreFactory": func() (*Executor, error) { return sharded(WithWorkloadFactory(plain)) },
		"migration with a fixed scheduler": func() (*Executor, error) {
			return sharded(WithWorkloadFactory(&mapFactory{}), WithSchedulerKind(SchedFixed, 0, 65535),
				WithMigration(MigrateOnRepartition))
		},
		"round-robin": func() (*Executor, error) {
			return sharded(WithWorkloadFactory(&mapFactory{}), WithSchedulerKind(SchedRoundRobin, 0, 65535))
		},
		"an unknown migration mode": func() (*Executor, error) {
			return sharded(WithWorkloadFactory(&mapFactory{}), WithMigration("teleport"))
		},
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s succeeded", name)
		}
	}
	for _, opts := range [][]Option{
		{WithWorkloadFactory(&mapFactory{})},
		{WithWorkloadFactory(&mapFactory{}), WithMigration(MigrateOnRepartition)},
	} {
		ex, err := sharded(opts...)
		if err != nil {
			t.Fatalf("valid migrating config rejected: %v", err)
		}
		if ex.migr == nil {
			t.Error("ShardPerWorker under SchedAdaptive built no migrator")
		}
	}
	fixed, err := sharded(WithWorkloadFactory(plain), WithSchedulerKind(SchedFixed, 0, 65535))
	if err != nil {
		t.Fatalf("ShardPerWorker under SchedFixed rejected: %v", err)
	}
	if fixed.migr != nil {
		t.Error("ShardPerWorker under SchedFixed built a migrator")
	}
}

// keptStore is a shard that allocates nothing of its own: every extraction
// hands back the same keys, and installs are dropped.
type keptStore struct{ out [][]uint32 }

func (s *keptStore) Execute(*stm.Thread, Task) (any, error) { return nil, nil }

func (s *keptStore) ExtractRanges(*stm.Thread, []Range) ([][]uint32, error) { return s.out, nil }

func (s *keptStore) InstallKeys(*stm.Thread, []uint32) error { return nil }

type keptFactory struct{ shards []*keptStore }

func (f *keptFactory) NewShard(worker int) Workload {
	f.shards = append(f.shards, &keptStore{out: [][]uint32{{7, 8}}})
	return f.shards[worker]
}

func (f *keptFactory) Store(worker int) ShardStore { return f.shards[worker] }

// TestHandoffAllocs pins the migrator's own allocations in one one-range
// hand-off: its extraction argument is a reused buffer, so with a store that
// allocates nothing, moving the range allocates nothing.
func TestHandoffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ex, err := NewExecutor(WithWorkers(2), WithSharding(ShardPerWorker), WithWorkloadFactory(&keptFactory{}))
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByFrom([]movedRange{{lo: 100, hi: 200, from: 0, to: 1}})
	var moved uint64
	if got := testing.AllocsPerRun(100, func() { moved = ex.migr.handoff(groups) }); got != 0 {
		t.Errorf("one one-range hand-off: %.1f allocs, want 0", got)
	}
	if moved != 2 {
		t.Errorf("moved %d keys, want 2", moved)
	}
}

// TestFenceClampsOutOfRangeKeys: Partition.Pick clamps stray keys onto the
// edge ranges, so the fence must clamp identically — a key above the
// scheduler's max dispatches into the top range and must park with it when
// that range is in transit, not slip past the fence to the new owner.
func TestFenceClampsOutOfRangeKeys(t *testing.T) {
	f := &fence{
		ranges: []movedRange{{lo: 30000, hi: 65535, from: 0, to: 1}},
		min:    0,
		max:    65535,
		held:   make([]holdQueue, 1),
	}
	if f.hold(1<<20) != &f.held[0] {
		t.Error("key above scheduler max: no hold queue, want the moved top range's (clamps onto it)")
	}
	if h := f.hold(10); h != nil {
		t.Errorf("unmoved in-range key held by %p", h)
	}
	g := &fence{
		ranges: []movedRange{{lo: 100, hi: 5000, from: 1, to: 0}},
		min:    100,
		max:    65535,
		held:   make([]holdQueue, 1),
	}
	if g.hold(5) != &g.held[0] {
		t.Error("key below scheduler min: no hold queue, want the moved bottom range's (clamps onto it)")
	}
}

// TestDiffPartitions pins the moved-range computation.
func TestDiffPartitions(t *testing.T) {
	uni, err := hist.UniformPartition(0, 99, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Identical partitions: nothing moves.
	if d := diffPartitions(uni, uni); len(d) != 0 {
		t.Errorf("identical partitions diff = %v", d)
	}
	// Mass concentrated in the low fifth: the PD boundary drops below the
	// uniform one, so the interval between the two boundaries moves 0 → 1.
	counts := make([]uint64, 100)
	for i := 0; i < 20; i++ {
		counts[i] = 10
	}
	cdf, err := hist.NewCDFFromCounts(0, 99, counts)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := hist.PDPartition(cdf, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := pd.Bounds()[0]
	if b >= 49 {
		t.Fatalf("test setup: PD boundary %d not below the uniform boundary", b)
	}
	d := diffPartitions(uni, pd)
	if len(d) != 1 {
		t.Fatalf("diff = %v, want one range", d)
	}
	want := movedRange{lo: b + 1, hi: 49, from: 0, to: 1}
	if d[0] != want {
		t.Errorf("diff[0] = %+v, want %+v", d[0], want)
	}
	// And the reverse move.
	d = diffPartitions(pd, uni)
	if len(d) != 1 || d[0].from != 1 || d[0].to != 0 || d[0].lo != b+1 || d[0].hi != 49 {
		t.Errorf("reverse diff = %+v", d)
	}
	// Four workers, shifted one cell: each interior interval moves to the
	// neighbouring owner, and adjacent elementary intervals with the same
	// (from, to) merge.
	a4, err := hist.UniformPartition(0, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts2 := make([]uint64, 100)
	for i := 10; i < 110 && i < 100; i++ {
		counts2[i] = 1
	}
	cdf2, err := hist.NewCDFFromCounts(0, 99, counts2)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := hist.PDPartition(cdf2, 4)
	if err != nil {
		t.Fatal(err)
	}
	d4 := diffPartitions(a4, b4)
	if len(d4) == 0 {
		t.Fatal("shifted 4-way partition produced no moved ranges")
	}
	for _, r := range d4 {
		if r.from == r.to {
			t.Errorf("range %+v moves to its own owner", r)
		}
		if r.lo > r.hi {
			t.Errorf("range %+v inverted", r)
		}
		// Spot-check ownership at both ends of each reported range.
		for _, k := range []uint64{r.lo, r.hi} {
			if a4.Pick(k) != r.from || b4.Pick(k) != r.to {
				t.Errorf("range %+v: key %d owners are %d→%d", r, k, a4.Pick(k), b4.Pick(k))
			}
		}
	}
}

// batchMapShard is a mapShard that counts how the migrator reaches its
// store.
type batchMapShard struct {
	mapShard
	batchCalls  *atomic.Int32 // ExtractRanges invocations (shared across shards)
	batchRanges *atomic.Int32 // ranges covered by those invocations
}

func (m *batchMapShard) ExtractRanges(th *stm.Thread, ranges []Range) ([][]uint32, error) {
	m.batchCalls.Add(1)
	m.batchRanges.Add(int32(len(ranges)))
	return m.mapShard.ExtractRanges(th, ranges)
}

type batchMapFactory struct {
	batchCalls, batchRanges atomic.Int32
	shards                  []*batchMapShard
}

func (f *batchMapFactory) NewShard(worker int) Workload {
	sh := &batchMapShard{
		mapShard:    mapShard{keys: make(map[uint32]bool)},
		batchCalls:  &f.batchCalls,
		batchRanges: &f.batchRanges,
	}
	for len(f.shards) <= worker {
		f.shards = append(f.shards, nil)
	}
	f.shards[worker] = sh
	return sh
}

func (f *batchMapFactory) Store(worker int) ShardStore { return f.shards[worker] }

// TestMigrationBatchExtraction pins the epoch-batched hand-off: when one
// re-partition moves SEVERAL ranges out of one shard, the store is asked for
// all of them in one ExtractRanges call — one call per old owner per epoch,
// a single-range shard included — and read-your-writes holds for keys in
// every moved range.
func TestMigrationBatchExtraction(t *testing.T) {
	factory := &batchMapFactory{}
	ex, err := NewExecutor(
		WithWorkers(3),
		WithSharding(ShardPerWorker),
		WithWorkloadFactory(factory),
		WithSchedulerKind(SchedAdaptive, 0, 65535, WithThreshold(reproThreshold), WithReAdaptation()),
		WithMigration(MigrateOnRepartition),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// Sample all mass into [0, 8191]: the initial uniform 3-way partition
	// (boundaries ~21845/~43690) re-partitions with both new boundaries
	// inside [0, 8192), so old worker 0 loses TWO ranges — one to worker 1,
	// one to worker 2 — and old worker 1 loses exactly one to worker 2.
	// The inserted keys live in shard 0 until the hand-off moves them.
	for i := 0; i < reproThreshold; i++ {
		k := uint64(i*8) % 8192
		if i == reproThreshold-1 {
			k = 1 // the trigger key must not be in a moved range
		}
		if _, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: uint32(k)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "migration epoch", func() bool { return ex.MigrationStats().Epochs >= 1 })
	if err := ex.MigrationErr(); err != nil {
		t.Fatal(err)
	}
	if got := factory.batchCalls.Load(); got != 2 {
		t.Errorf("ExtractRanges calls = %d, want 2 (one per old owner)", got)
	}
	if got := factory.batchRanges.Load(); got < 3 {
		t.Errorf("extracted ranges = %d, want >= 3 (two from shard 0, one from shard 1)", got)
	}
	if moved := ex.MigrationStats().KeysMoved; moved == 0 {
		t.Error("no keys moved")
	}
	// Read-your-writes across every moved range: each inserted key answers
	// true through whatever worker now owns it.
	for _, k := range []uint64{2992, 4504, 6000, 7984} {
		res, err := ex.Submit(ctx, Task{Key: k, Op: OpLookup, Arg: uint32(k)})
		if err != nil {
			t.Fatal(err)
		}
		if found, _ := res.Value.(bool); !found {
			t.Errorf("key %d invisible after batched hand-off", k)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupByFrom pins the epoch grouping: ranges bucket by old owner in
// first-seen order, preserving per-shard range order.
func TestGroupByFrom(t *testing.T) {
	in := []movedRange{
		{lo: 0, hi: 9, from: 2, to: 0},
		{lo: 10, hi: 19, from: 0, to: 1},
		{lo: 20, hi: 29, from: 2, to: 1},
		{lo: 30, hi: 39, from: 0, to: 2},
	}
	got := groupByFrom(in)
	if len(got) != 2 {
		t.Fatalf("%d groups, want 2", len(got))
	}
	if got[0].from != 2 || len(got[0].ranges) != 2 || got[0].ranges[0].lo != 0 || got[0].ranges[1].lo != 20 {
		t.Errorf("group 0 = %+v", got[0])
	}
	if got[1].from != 0 || len(got[1].ranges) != 2 || got[1].ranges[0].lo != 10 || got[1].ranges[1].lo != 30 {
		t.Errorf("group 1 = %+v", got[1])
	}
}
