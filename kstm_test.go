package kstm_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kstm"
)

// TestFacadeSTM exercises the whole public STM surface.
func TestFacadeSTM(t *testing.T) {
	s := kstm.New(kstm.WithContentionManager(kstm.NewPolka))
	box := kstm.NewBox(0)
	th := s.NewThread()
	err := th.Atomic(func(tx *kstm.Tx) error {
		v, err := box.Write(tx)
		if err != nil {
			return err
		}
		*v = 7
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := th.Begin()
	v, err := box.Read(tx)
	if err != nil || *v != 7 {
		t.Fatalf("read = (%v, %v)", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Commits != 2 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestFacadeDataStructures(t *testing.T) {
	s := kstm.New()
	th := s.NewThread()
	sets := []kstm.IntSet{kstm.NewHashTable(64), kstm.NewRBTree(), kstm.NewSortedList()}
	for _, set := range sets {
		if added, err := set.Insert(th, 5); err != nil || !added {
			t.Fatalf("%s: Insert = (%v,%v)", set.Name(), added, err)
		}
		if found, err := set.Contains(th, 5); err != nil || !found {
			t.Fatalf("%s: Contains = (%v,%v)", set.Name(), found, err)
		}
		if removed, err := set.Delete(th, 5); err != nil || !removed {
			t.Fatalf("%s: Delete = (%v,%v)", set.Name(), removed, err)
		}
	}
	st := kstm.NewStack()
	if err := st.Push(th, 1); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := st.Pop(th); err != nil || !ok || v != 1 {
		t.Fatalf("stack pop = (%d,%v,%v)", v, ok, err)
	}
}

func TestFacadeExecutorEndToEnd(t *testing.T) {
	s := kstm.New()
	table := kstm.NewHashTable(0)
	sched, err := kstm.NewScheduler(kstm.SchedAdaptive, 0, uint64(table.Buckets()-1), 2, kstm.WithThreshold(500))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kstm.NewPool(kstm.Config{
		STM: s,
		Workload: kstm.WorkloadFunc(func(th *kstm.Thread, task kstm.Task) (any, error) {
			if task.Op == kstm.OpInsert {
				return table.Insert(th, task.Arg)
			}
			return table.Delete(th, task.Arg)
		}),
		NewSource: func(p int) kstm.TaskSource {
			src := kstm.NewUniform(uint64(p + 1))
			return kstm.SourceFunc(func() kstm.Task {
				key, insert := kstm.SplitKey(src.Next())
				op := kstm.OpInsert
				if !insert {
					op = kstm.OpDelete
				}
				return kstm.Task{Key: uint64(table.Hash(key)), Op: op, Arg: key}
			})
		},
		Workers:   2,
		Producers: 2,
		Model:     kstm.ModelParallel,
		Scheduler: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.RunCount(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5000 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.STM.Commits < 5000 {
		t.Errorf("commits %d < tasks", res.STM.Commits)
	}
}

// TestFacadeOpenExecutor drives the open API end-to-end through the public
// surface: concurrent clients submit dictionary transactions against an
// adaptive executor, two more go through SubmitAsync, and Drain closes the
// lifecycle with every future resolved.
func TestFacadeOpenExecutor(t *testing.T) {
	table := kstm.NewHashTable(0)
	ex, err := kstm.NewExecutor(
		kstm.WithWorkload(kstm.WorkloadFunc(func(th *kstm.Thread, task kstm.Task) (any, error) {
			if task.Op == kstm.OpInsert {
				return table.Insert(th, task.Arg)
			}
			return table.Delete(th, task.Arg)
		})),
		kstm.WithWorkers(4),
		kstm.WithSchedulerKind(kstm.SchedAdaptive, 0, uint64(table.Buckets()-1), kstm.WithThreshold(500)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := kstm.NewUniform(uint64(g + 1))
			for i := 0; i < per; i++ {
				key, insert := kstm.SplitKey(src.Next())
				op := kstm.OpDelete
				if insert {
					op = kstm.OpInsert
				}
				if _, err := ex.Submit(ctx, kstm.Task{Key: uint64(table.Hash(key)), Op: op, Arg: key}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var futs []*kstm.Future
	for _, k := range []uint32{1, 2} {
		f, err := ex.SubmitAsync(ctx, kstm.Task{Key: uint64(table.Hash(k)), Op: kstm.OpInsert, Arg: k})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	const total = goroutines*per + 2
	if st.Completed != total {
		t.Fatalf("completed %d, want %d", st.Completed, total)
	}
	if st.STM.Commits < total {
		t.Errorf("commits %d < completed", st.STM.Commits)
	}
	if _, err := ex.Submit(ctx, kstm.Task{}); !errors.Is(err, kstm.ErrNotRunning) {
		t.Errorf("submit after drain: %v", err)
	}
}

// TestFacadeTypedSharded drives the v2 surface end to end through the
// public API: a sharded executor with per-worker hash tables, typed inserts
// and lookups whose values come back through SubmitTyped, and per-shard
// stats with latency percentiles.
func TestFacadeTypedSharded(t *testing.T) {
	buckets := kstm.NewHashTable(0).Buckets()
	ex, err := kstm.NewExecutor(
		kstm.WithSharding(kstm.ShardPerWorker),
		kstm.WithWorkloadFactory(kstm.WorkloadFactoryFunc(func(worker int) kstm.Workload {
			shard := kstm.NewHashTable(0)
			return kstm.WorkloadFunc(func(th *kstm.Thread, task kstm.Task) (any, error) {
				switch task.Op {
				case kstm.OpInsert:
					return shard.Insert(th, task.Arg)
				case kstm.OpLookup:
					return shard.Contains(th, task.Arg)
				default:
					return shard.Delete(th, task.Arg)
				}
			})
		})),
		kstm.WithWorkers(4),
		// Fixed partitioning: the key→worker mapping is stable, so an
		// insert and its later lookup reach the same shard. (Adaptive
		// sharding needs a StoreFactory, whose state moves with every
		// re-partitioned range; this plain factory has none.)
		kstm.WithSchedulerKind(kstm.SchedFixed, 0, uint64(buckets-1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	hash := func(k uint32) uint64 { return uint64(k) % uint64(buckets) }
	const goroutines, per = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := uint32(g*per + i)
				added, err := kstm.SubmitTyped[bool](ctx, ex, kstm.Task{Key: hash(key), Op: kstm.OpInsert, Arg: key})
				if err != nil || !added {
					t.Errorf("insert %d = (%v, %v)", key, added, err)
					return
				}
				// The lookup routes by the same key, hence to the same
				// shard: the inserted value must be visible.
				found, err := kstm.SubmitTyped[bool](ctx, ex, kstm.Task{Key: hash(key), Op: kstm.OpLookup, Arg: key})
				if err != nil || !found {
					t.Errorf("lookup %d = (%v, %v)", key, found, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Type mismatch is an error, not a zero value.
	if _, err := kstm.SubmitTyped[string](ctx, ex, kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1}); err == nil {
		t.Error("SubmitTyped[string] over a bool value succeeded")
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Sharding != kstm.ShardPerWorker || len(st.Shards) != 4 {
		t.Fatalf("sharding stats: mode=%q shards=%d", st.Sharding, len(st.Shards))
	}
	var sum uint64
	for _, ss := range st.Shards {
		sum += ss.Completed
	}
	if sum != st.Completed {
		t.Errorf("shard sum %d != completed %d", sum, st.Completed)
	}
	if st.Wait.Count == 0 || st.Service.P99 < st.Service.P50 {
		t.Errorf("latency summaries missing: wait=%v service=%v", st.Wait, st.Service)
	}
}

func TestFacadeSim(t *testing.T) {
	p := kstm.DefaultSimParams()
	p.Workers = 4
	p.Scheduler = kstm.SchedAdaptive
	p.DurationCycles = 30_000_000
	p.WarmupCycles = 10_000_000
	r, err := kstm.SimRun(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.Throughput() <= 0 {
		t.Fatalf("sim result %+v", r)
	}
}

func TestFacadeConcurrentCounter(t *testing.T) {
	s := kstm.New()
	box := kstm.NewBox(0)
	var wg sync.WaitGroup
	const goroutines, per = 4, 250
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.NewThread()
			for i := 0; i < per; i++ {
				if err := th.Atomic(func(tx *kstm.Tx) error {
					v, err := box.Write(tx)
					if err != nil {
						return err
					}
					*v++
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	tx := s.NewThread().Begin()
	v, _ := box.Read(tx)
	if *v != goroutines*per {
		t.Fatalf("counter = %d", *v)
	}
}

func ExampleNewBox() {
	s := kstm.New()
	account := kstm.NewBox(100)
	th := s.NewThread()
	_ = th.Atomic(func(tx *kstm.Tx) error {
		balance, err := account.Write(tx)
		if err != nil {
			return err
		}
		*balance -= 30
		return nil
	})
	tx := th.Begin()
	v, _ := account.Read(tx)
	fmt.Println(*v)
	// Output: 70
}

// migFacadeFactory is the migration quick-start written purely against the
// facade: hash-table shards exposed as ShardStores that move dictionary-key
// ranges, the space the executor dispatches in (Task.Key == Arg).
type migFacadeFactory struct {
	tables []*kstm.HashTable
}

func (f *migFacadeFactory) NewShard(worker int) kstm.Workload {
	table := kstm.NewHashTable(0)
	for len(f.tables) <= worker {
		f.tables = append(f.tables, nil)
	}
	f.tables[worker] = table
	return kstm.WorkloadFunc(func(th *kstm.Thread, t kstm.Task) (any, error) {
		switch t.Op {
		case kstm.OpInsert:
			return table.Insert(th, t.Arg)
		case kstm.OpLookup:
			return table.Contains(th, t.Arg)
		default:
			return nil, fmt.Errorf("bad op %v", t.Op)
		}
	})
}

func (f *migFacadeFactory) Store(worker int) kstm.ShardStore {
	return hashRangeStore{t: f.tables[worker]}
}

// hashRangeStore adapts the table's dictionary-key extraction (32-bit keys)
// to the executor's 64-bit ShardStore ranges, which never pass MaxKey here.
type hashRangeStore struct{ t *kstm.HashTable }

func (s hashRangeStore) ExtractRanges(th *kstm.Thread, ranges []kstm.Range) ([][]uint32, error) {
	out := make([][]uint32, len(ranges))
	for i, r := range ranges {
		keys, err := s.t.ExtractKeyRange(th, uint32(r.Lo), uint32(r.Hi))
		out[i] = keys
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (s hashRangeStore) InstallKeys(th *kstm.Thread, keys []uint32) error {
	return s.t.InstallKeys(th, keys)
}

// TestFacadeMigration drives the epoch-fenced migration through exported
// names only: sharded executor, adaptive re-adaptation, WithMigration — a
// key written before the forced re-partition stays readable after it.
func TestFacadeMigration(t *testing.T) {
	factory := &migFacadeFactory{}
	const threshold = 800
	ex, err := kstm.NewExecutor(
		kstm.WithWorkers(2),
		kstm.WithSharding(kstm.ShardPerWorker),
		kstm.WithWorkloadFactory(factory),
		kstm.WithSchedulerKind(kstm.SchedAdaptive, 0, kstm.MaxKey,
			kstm.WithThreshold(threshold), kstm.WithReAdaptation()),
		kstm.WithMigration(kstm.MigrateOnRepartition),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	// Probe key 20000: inside worker 0's uniform half (boundary ~32767) until
	// the low-key sample mass pulls the PD boundary down to ~2048 and the
	// probe's range moves to worker 1.
	const probe = uint32(20000)
	if found, err := kstm.SubmitTyped[bool](ctx, ex, kstm.Task{Key: uint64(probe), Op: kstm.OpInsert, Arg: probe}); err != nil || !found {
		t.Fatalf("probe insert: (%v, %v)", found, err)
	}
	// Concentrate sampled mass well below the probe to force a boundary
	// shift on adaptation; the trigger task uses key 1 (never moves).
	for i := 1; i < threshold; i++ {
		k := uint32(i*4) % 4096
		if i == threshold-1 {
			k = 1
		}
		if _, err := ex.Submit(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ex.Stats().Migrations.Epochs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no migration epoch after forced re-partition")
		}
		time.Sleep(time.Millisecond)
	}
	found, err := kstm.SubmitTyped[bool](ctx, ex, kstm.Task{Key: uint64(probe), Op: kstm.OpLookup, Arg: probe})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("pre-migration insert invisible after re-partition")
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	st := ex.Stats()
	if st.Migrations.KeysMoved == 0 || st.SchedulerEpochs == 0 {
		t.Errorf("Migrations = %+v, SchedulerEpochs = %d", st.Migrations, st.SchedulerEpochs)
	}
}
