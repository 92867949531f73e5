package main

import (
	"context"
	"testing"
	"time"

	"kstm"
	"kstm/internal/core"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

func TestBuildExecutorModes(t *testing.T) {
	for _, mode := range []kstm.ShardMode{kstm.ShardShared, kstm.ShardPerWorker} {
		ex, err := buildExecutor(string(txds.KindHashTable), mode, 2, 64, 10000, false, false, false)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if got := ex.Sharding(); got != mode {
			t.Errorf("sharding = %s, want %s", got, mode)
		}
		if err := ex.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Reject-mode backpressure is wired in: the server sheds, never
		// stalls connection handlers.
		if _, err := ex.Submit(context.Background(), kstm.Task{Key: 1, Op: kstm.OpInsert, Arg: 1}); err != nil {
			t.Fatalf("%s: submit: %v", mode, err)
		}
		if err := ex.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuildExecutorRejectsBadConfig(t *testing.T) {
	if _, err := buildExecutor("btree", kstm.ShardShared, 2, 64, 10000, false, false, false); err == nil {
		t.Error("unknown structure accepted")
	}
	if _, err := buildExecutor(string(txds.KindHashTable), "replicated", 2, 64, 10000, false, false, false); err == nil {
		t.Error("unknown sharding mode accepted")
	}
	if _, err := buildExecutor(string(txds.KindHashTable), kstm.ShardShared, 2, 64, 10000, true, false, false); err == nil {
		t.Error("-migrate with shared sharding accepted")
	}
	if _, err := buildExecutor(string(txds.KindHashTable), kstm.ShardShared, 2, 64, 10000, false, false, true); err == nil {
		t.Error("-split without -structure counters accepted")
	}
	if _, err := buildExecutor(structureCounters, kstm.ShardPerWorker, 2, 64, 10000, false, false, true); err == nil {
		t.Error("counters with perworker sharding accepted")
	}
	if _, err := buildExecutor(structureCounters, kstm.ShardShared, 2, 64, 10000, true, false, false); err == nil {
		t.Error("counters with -migrate accepted")
	}
}

// TestBuildExecutorMigrate checks the -migrate wiring: perworker shards come
// up migratable and the executor reports the hand-off mode; every structure
// kind builds (all four dictionaries implement RangeStore).
func TestBuildExecutorMigrate(t *testing.T) {
	for _, kind := range []txds.Kind{txds.KindHashTable, txds.KindRBTree, txds.KindSortedList, txds.KindSkipList} {
		ex, err := buildExecutor(string(kind), kstm.ShardPerWorker, 2, 64, 10000, true, true, false)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := ex.Migration(); got != kstm.MigrateOnRepartition {
			t.Errorf("%s: Migration() = %q", kind, got)
		}
	}
}

// TestBuildExecutorCounters checks the -structure counters wiring, with and
// without -split: the commutative ops round-trip and a lookup reads an int64
// sum either way.
func TestBuildExecutorCounters(t *testing.T) {
	for _, split := range []bool{false, true} {
		ex, err := buildExecutor(structureCounters, kstm.ShardShared, 2, 64, 10000, false, false, split)
		if err != nil {
			t.Fatalf("split=%v: %v", split, err)
		}
		if got := ex.SplitPhase(); got != split {
			t.Errorf("SplitPhase() = %v, want %v", got, split)
		}
		ctx := context.Background()
		if err := ex.Start(ctx); err != nil {
			t.Fatal(err)
		}
		const adds = 50
		for i := 0; i < adds; i++ {
			if res, err := ex.Submit(ctx, kstm.Task{Key: 7, Op: kstm.OpAdd, Arg: 1}); err != nil || res.Err != nil {
				t.Fatalf("split=%v add: %v / %v", split, err, res.Err)
			}
		}
		res, err := ex.Submit(ctx, kstm.Task{Key: 7, Op: kstm.OpLookup})
		if err != nil || res.Err != nil {
			t.Fatalf("split=%v lookup: %v / %v", split, err, res.Err)
		}
		if sum, _ := res.Value.(int64); sum != adds {
			t.Errorf("split=%v: sum = %v, want %d", split, res.Value, adds)
		}
		if err := ex.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-structure", "btree", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("unknown structure accepted by run")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-split", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("-split without -structure counters accepted by run")
	}
}

// TestDrainTimeoutBounded: -drain-timeout bounds graceful shutdown. A deep
// backlog of slow tasks (which would drain naturally for many seconds) is
// force-stopped when the timer fires: drain returns promptly, the in-flight
// task finishes, and the queued remainder settles under Cancelled — a
// wedged or slow-drained backlog cannot hold shutdown hostage.
func TestDrainTimeoutBounded(t *testing.T) {
	ex, err := core.NewExecutor(
		core.WithWorkers(1),
		core.WithBackpressure(core.BackpressureReject),
		core.WithQueueDepth(1024),
		core.WithWorkload(core.WorkloadFunc(func(_ *stm.Thread, _ core.Task) (any, error) {
			time.Sleep(20 * time.Millisecond)
			return nil, nil
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// ~200 tasks x 20ms on one worker = ~4s of natural drain.
	const backlog = 200
	submitted := 0
	for i := 0; i < backlog; i++ {
		if _, err := ex.SubmitAsync(ctx, core.Task{Key: uint64(i)}); err != nil {
			break
		}
		submitted++
	}
	if submitted < 10 {
		t.Fatalf("only %d tasks queued; cannot exercise the timeout", submitted)
	}
	start := time.Now()
	drain(ex, 50*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("drain took %v; timeout did not bound it", elapsed)
	}
	st := ex.Stats()
	if st.Cancelled == 0 {
		t.Error("forced stop settled no queued tasks as cancelled")
	}
	if st.Completed+st.Cancelled != uint64(submitted) {
		t.Errorf("completed(%d)+cancelled(%d) != submitted(%d)",
			st.Completed, st.Cancelled, submitted)
	}
}
