package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kstm/internal/stm"
	"kstm/internal/txds"
)

// shardWorkload is a per-shard workload: it counts its own executions and
// runs one real STM transaction per task against a shard-local Box, so a
// cross-shard execution would show up as a commit in the wrong STM.
type shardWorkload struct {
	shard int
	box   stm.Box[int]
	mu    sync.Mutex
	n     int
}

func (w *shardWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	if err := th.Atomic(func(tx *stm.Tx) error {
		v, err := w.box.Write(tx)
		if err != nil {
			return err
		}
		*v++
		return nil
	}); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.n++
	n := w.n
	w.mu.Unlock()
	return [2]int{w.shard, n}, nil
}

func TestShardingValidation(t *testing.T) {
	factory := WorkloadFactoryFunc(func(worker int) Workload {
		return &shardWorkload{shard: worker, box: stm.NewBox(0)}
	})
	if _, err := NewExecutor(WithSharding(ShardPerWorker), WithWorkers(2)); err == nil {
		t.Error("ShardPerWorker without a factory succeeded")
	}
	if _, err := NewExecutor(WithSharding(ShardPerWorker), WithWorkers(2), WithWorkload(&nopWorkload{})); err == nil {
		t.Error("ShardPerWorker with only WithWorkload succeeded")
	}
	if _, err := NewExecutor(WithSharding(ShardPerWorker), WithWorkers(2),
		WithWorkloadFactory(factory), WithSTM(stm.New())); err == nil {
		t.Error("ShardPerWorker with WithSTM succeeded")
	}
	if _, err := NewExecutor(WithWorkers(2), WithWorkload(&nopWorkload{}), WithWorkloadFactory(factory)); err == nil {
		t.Error("WithWorkload + WithWorkloadFactory together succeeded")
	}
	if _, err := NewExecutor(WithWorkers(2), WithWorkloadFactory(factory), WithSharding("diagonal")); err == nil {
		t.Error("unknown sharding mode succeeded")
	}
	// A factory alone is fine in shared mode: NewShard(0) serves everyone.
	ex, err := NewExecutor(WithWorkers(2), WithWorkloadFactory(factory))
	if err != nil {
		t.Fatalf("shared-mode factory: %v", err)
	}
	if ex.NumShards() != 1 || ex.Sharding() != ShardShared {
		t.Errorf("shared-mode factory: shards=%d mode=%q", ex.NumShards(), ex.Sharding())
	}
}

// TestShardPerWorkerStatsAndIsolation drives a sharded executor under -race
// and checks the per-shard accounting: shard completions sum to the total,
// every shard's STM counters show exactly its own workers' transactions, and
// the aggregate STM snapshot is the shard sum.
func TestShardPerWorkerStatsAndIsolation(t *testing.T) {
	const workers = 4
	workloads := make([]*shardWorkload, workers)
	ex, err := NewExecutor(
		WithWorkers(workers),
		WithSharding(ShardPerWorker),
		WithWorkloadFactory(WorkloadFactoryFunc(func(worker int) Workload {
			workloads[worker] = &shardWorkload{shard: worker, box: stm.NewBox(0)}
			return workloads[worker]
		})),
		WithSchedulerKind(SchedFixed, 0, 65535),
	)
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumShards() != workers {
		t.Fatalf("NumShards = %d, want %d", ex.NumShards(), workers)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const clients, per = 8, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64((c*per+i)*39) % 65536 // spread across ranges
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

	st := ex.Stats()
	if st.Sharding != ShardPerWorker {
		t.Errorf("Sharding = %q", st.Sharding)
	}
	if len(st.Shards) != workers {
		t.Fatalf("len(Shards) = %d", len(st.Shards))
	}
	const total = clients * per
	if st.Completed != total {
		t.Fatalf("completed %d, want %d", st.Completed, total)
	}
	var shardSum uint64
	var stmSum stm.StatsSnapshot
	for i, ss := range st.Shards {
		if ss.Shard != i {
			t.Errorf("Shards[%d].Shard = %d", i, ss.Shard)
		}
		if len(ss.Workers) != 1 || ss.Workers[0] != i {
			t.Errorf("Shards[%d].Workers = %v, want [%d]", i, ss.Workers, i)
		}
		if ss.Completed != st.PerWorker[i] {
			t.Errorf("Shards[%d].Completed = %d, PerWorker = %d", i, ss.Completed, st.PerWorker[i])
		}
		// Exactly this shard's tasks committed in this shard's STM: one
		// transaction per task, no cross-shard leakage.
		if ss.STM.Commits != ss.Completed {
			t.Errorf("Shards[%d]: STM commits %d != completed %d", i, ss.STM.Commits, ss.Completed)
		}
		// The workload object the factory built for this worker saw all
		// of the shard's executions.
		if uint64(workloads[i].n) != ss.Completed {
			t.Errorf("Shards[%d]: workload executions %d != completed %d", i, workloads[i].n, ss.Completed)
		}
		shardSum += ss.Completed
		stmSum = stmSum.Add(ss.STM)
	}
	if shardSum != st.Completed {
		t.Errorf("shard completions sum %d != total %d", shardSum, st.Completed)
	}
	if stmSum != st.STM {
		t.Errorf("shard STM sum %+v != aggregate %+v", stmSum, st.STM)
	}
	if st.STM.Commits != total {
		t.Errorf("aggregate commits = %d, want %d", st.STM.Commits, total)
	}
}

// TestStealConfinedToShard floods one worker's key range with stealing
// enabled: in sharded mode no other worker may take the work (their shards
// don't hold the data), so steals stay zero and only worker 0 completes —
// while the same setup in shared mode does steal.
func TestStealConfinedToShard(t *testing.T) {
	run := func(mode ShardMode) ExecStats {
		opts := []Option{
			WithWorkers(4),
			WithSchedulerKind(SchedFixed, 0, 65535),
			WithWorkSteal(true),
		}
		if mode == ShardPerWorker {
			opts = append(opts, WithSharding(ShardPerWorker),
				WithWorkloadFactory(WorkloadFactoryFunc(func(worker int) Workload {
					return &shardWorkload{shard: worker, box: stm.NewBox(0)}
				})))
		} else {
			opts = append(opts, WithWorkload(&shardWorkload{box: stm.NewBox(0)}))
		}
		ex, err := NewExecutor(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := ex.Start(ctx); err != nil {
			t.Fatal(err)
		}
		// Key 1 lives in worker 0's fixed range; everyone else is idle
		// and hungry to steal.
		tasks := make([]Task, 800)
		for i := range tasks {
			tasks[i] = Task{Key: 1, Op: OpInsert, Arg: 1}
		}
		futs, err := ex.SubmitAll(ctx, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range futs {
			if _, err := f.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.Drain(); err != nil {
			t.Fatal(err)
		}
		return ex.Stats()
	}

	sharded := run(ShardPerWorker)
	if sharded.Steals != 0 {
		t.Errorf("sharded mode stole %d tasks across shards", sharded.Steals)
	}
	for w := 1; w < 4; w++ {
		if sharded.PerWorker[w] != 0 {
			t.Errorf("sharded mode: worker %d completed %d tasks from another shard", w, sharded.PerWorker[w])
		}
	}
	if sharded.PerWorker[0] != 800 {
		t.Errorf("sharded mode: worker 0 completed %d, want all 800", sharded.PerWorker[0])
	}
	// Control: the same flood in shared mode is allowed to steal (the
	// shared shard spans all queues). We only assert it stays legal, not
	// that stealing happened — timing may drain the queue first.
	shared := run(ShardShared)
	if shared.Completed != 800 {
		t.Errorf("shared mode completed %d", shared.Completed)
	}
}

// TestTypedResultRoundTrip checks the satellite requirement end to end at
// the core layer: the workload's value reaches TaskResult.Value through
// Submit, Future.Wait and Future.WaitValue.
func TestTypedResultRoundTrip(t *testing.T) {
	wl := WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
		if task.Op == OpLookup {
			return task.Arg * 2, nil
		}
		return nil, nil
	})
	ex, err := NewExecutor(WithWorkload(wl), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()

	res, err := ex.Submit(ctx, Task{Key: 3, Op: OpLookup, Arg: 21})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Value.(uint32); !ok || v != 42 {
		t.Errorf("Submit value = %v (%T), want 42", res.Value, res.Value)
	}

	fut, err := ex.SubmitAsync(ctx, Task{Key: 3, Op: OpLookup, Arg: 100})
	if err != nil {
		t.Fatal(err)
	}
	v, err := fut.WaitValue(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v != uint32(200) {
		t.Errorf("WaitValue = %v, want 200", v)
	}

	// Value-less ops carry nil.
	res, err = ex.Submit(ctx, Task{Key: 3, Op: OpInsert, Arg: 1})
	if err != nil || res.Value != nil {
		t.Errorf("insert value = (%v, %v), want (nil, nil)", res.Value, err)
	}
}

// TestSubmitAllPartialFutures pins the SubmitAll contract on each of its
// paths (plain grouped splice; per-task under a migration fence and under a
// split table): when the batch stops early the returned slice stays
// position-aligned with the tasks — accepted tasks carry live futures that
// settle normally once the executor gets to them, never-submitted tasks are
// nil — the in-flight count returns to zero, and Rejected counts exactly the
// tasks a full queue turned away.
func TestSubmitAllPartialFutures(t *testing.T) {
	const batch = 5
	rows := []struct {
		name string
		// build returns a one-worker executor under the given options whose
		// worker blocks inside OpNoop until release is called.
		build func(t *testing.T, opts ...Option) (ex *Executor, release func())
	}{
		{"plain", func(t *testing.T, opts ...Option) (*Executor, func()) {
			gate := newEntryGate()
			w := &gatedCounterWorkload{counterWorkload: counterWorkload{c: txds.NewCounters(8)}, execGate: gate}
			ex, err := NewExecutor(append([]Option{WithWorkload(w), WithWorkers(1)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return ex, func() { close(gate.open) }
		}},
		{"migration", func(t *testing.T, opts ...Option) (*Executor, func()) {
			gate := newEntryGate()
			ex, err := NewExecutor(append([]Option{
				WithWorkers(1),
				WithSharding(ShardPerWorker),
				WithWorkloadFactory(&mapFactory{execGate: gate}),
				WithMigration(MigrateOnRepartition),
			}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return ex, func() { close(gate.open) }
		}},
		{"split", func(t *testing.T, opts ...Option) (*Executor, func()) {
			gate := newEntryGate()
			w := &gatedCounterWorkload{counterWorkload: counterWorkload{c: txds.NewCounters(8)}, execGate: gate}
			ex, err := NewExecutor(append([]Option{
				WithWorkload(w), WithWorkers(1), WithSchedulerKind(SchedFixed, 0, 7),
				WithSplitPhase(SplitKeys(3)),
			}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return ex, func() { close(gate.open) }
		}},
	}
	tasks := make([]Task, batch)
	for i := range tasks {
		tasks[i] = Task{Key: 1, Op: OpNoop, Arg: uint32(i)}
	}
	for _, row := range rows {
		t.Run(row.name+"/reject", func(t *testing.T) {
			ex, release := row.build(t, WithQueueDepth(1), WithBackpressure(BackpressureReject))
			ctx := context.Background()
			if err := ex.Start(ctx); err != nil {
				t.Fatal(err)
			}
			defer ex.Stop()
			release = sync.OnceFunc(release)
			defer release()
			// Occupy the worker: one task executing (blocked on the gate).
			// Spin until it has left the queue so the depth bound is fully
			// available to the batch.
			first, err := ex.SubmitAsync(ctx, Task{Key: 1, Op: OpNoop})
			if err != nil {
				t.Fatal(err)
			}
			for ex.Stats().QueueDepths[0] != 0 {
				time.Sleep(time.Millisecond)
			}
			// Batch of 5 into a depth-1 queue: the first fills the queue, the
			// second hits ErrQueueFull, and the rest are never offered.
			futs, err := ex.SubmitAll(ctx, tasks)
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("SubmitAll error = %v, want ErrQueueFull", err)
			}
			if len(futs) != len(tasks) {
				t.Fatalf("futures slice = %d entries, want position-aligned %d", len(futs), len(tasks))
			}
			accepted := 0
			for _, f := range futs {
				if f != nil {
					accepted++
				}
			}
			if accepted != 1 {
				t.Fatalf("accepted = %d of %d into a depth-1 queue, want 1", accepted, len(tasks))
			}
			if st := ex.Stats(); st.Rejected != uint64(len(tasks)-accepted) {
				t.Errorf("Rejected = %d, want %d (every unsubmitted task)", st.Rejected, len(tasks)-accepted)
			}
			// The accepted futures are usable: release the worker and every
			// one of them settles with a normal completion echoing its own
			// task.
			release()
			if _, err := first.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			for i, f := range futs {
				if f == nil {
					continue
				}
				res, err := f.Wait(ctx)
				if err != nil {
					t.Fatalf("accepted future %d: %v", i, err)
				}
				if res.Task.Arg != uint32(i) {
					t.Errorf("future at slot %d echoes task %d", i, res.Task.Arg)
				}
			}
			if err := ex.Drain(); err != nil {
				t.Fatal(err)
			}
			if n := ex.Stats().InFlight; n != 0 {
				t.Errorf("InFlight = %d after Drain", n)
			}
		})
		t.Run(row.name+"/after-drain", func(t *testing.T) {
			ex, release := row.build(t)
			release()
			if err := ex.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := ex.Drain(); err != nil {
				t.Fatal(err)
			}
			futs, err := ex.SubmitAll(context.Background(), tasks)
			if !errors.Is(err, ErrNotRunning) {
				t.Fatalf("SubmitAll after Drain = %v, want ErrNotRunning", err)
			}
			for i, f := range futs {
				if f != nil {
					t.Errorf("slot %d carries a future for a task that was never submitted", i)
				}
			}
			if st := ex.Stats(); st.InFlight != 0 || st.Rejected != 0 || st.Submitted != 0 {
				t.Errorf("after a refused batch: InFlight=%d Rejected=%d Submitted=%d, want all 0", st.InFlight, st.Rejected, st.Submitted)
			}
		})
	}
}

// TestLatencyPercentilesReported checks ExecStats carries wait and service
// percentiles for submitted work, in both sharding modes.
func TestLatencyPercentilesReported(t *testing.T) {
	for _, mode := range []ShardMode{ShardShared, ShardPerWorker} {
		opts := []Option{WithWorkers(2), WithSchedulerKind(SchedFixed, 0, 65535)}
		wl := WorkloadFunc(func(th *stm.Thread, task Task) (any, error) {
			time.Sleep(50 * time.Microsecond)
			return nil, nil
		})
		if mode == ShardPerWorker {
			opts = append(opts, WithSharding(mode),
				WithWorkloadFactory(WorkloadFactoryFunc(func(int) Workload { return wl })))
		} else {
			opts = append(opts, WithWorkload(wl))
		}
		ex, err := NewExecutor(opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := ex.Start(ctx); err != nil {
			t.Fatal(err)
		}
		const n = 64
		for i := 0; i < n; i++ {
			if _, err := ex.Submit(ctx, Task{Key: uint64(i * 1024)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.Drain(); err != nil {
			t.Fatal(err)
		}
		st := ex.Stats()
		if st.Wait.Count != n || st.Service.Count != n {
			t.Fatalf("%s: latency counts wait=%d service=%d, want %d", mode, st.Wait.Count, st.Service.Count, n)
		}
		if st.Service.P50 <= 0 || st.Service.P99 < st.Service.P50 || st.Service.Max < st.Service.P99 {
			t.Errorf("%s: service percentiles inconsistent: %v", mode, st.Service)
		}
		if st.Wait.P99 < st.Wait.P50 {
			t.Errorf("%s: wait percentiles inconsistent: %v", mode, st.Wait)
		}
	}
}
