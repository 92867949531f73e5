package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/core"
	"kstm/internal/rng"
	"kstm/internal/stm"
	"kstm/internal/txds"
	"kstm/server"
)

func TestBuildExecutorModes(t *testing.T) {
	for _, mode := range []kstm.ShardMode{kstm.ShardShared, kstm.ShardPerWorker} {
		ex, err := buildExecutor(string(txds.KindHashTable), mode, 2, 64, 10000, false, false)
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
	for _, mode := range []kstm.ShardMode{kstm.ShardShared, kstm.ShardPerWorker} {
		if _, err := buildExecutor("btree", mode, 2, 64, 10000, false, false); err == nil {
			t.Errorf("%s: unknown structure accepted", mode)
		}
	}
	if _, err := buildExecutor(string(txds.KindHashTable), "replicated", 2, 64, 10000, false, false); err == nil {
		t.Error("unknown sharding mode accepted")
	}
	if _, err := buildExecutor(string(txds.KindHashTable), kstm.ShardShared, 2, 64, 10000, false, true); err == nil {
		t.Error("-split without -structure counters accepted")
	}
	if _, err := buildExecutor(structureCounters, kstm.ShardPerWorker, 2, 64, 10000, false, true); err == nil {
		t.Error("counters with perworker sharding accepted")
	}
}

// TestBuildExecutorMigrate checks the perworker wiring: every structure kind
// builds under the adaptive scheduler, which NewExecutor accepts only with a
// migratable store for every shard.
func TestBuildExecutorMigrate(t *testing.T) {
	for _, kind := range []txds.Kind{txds.KindHashTable, txds.KindRBTree, txds.KindSortedList, txds.KindSkipList} {
		ex, err := buildExecutor(string(kind), kstm.ShardPerWorker, 2, 64, 10000, true, false)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := ex.Scheduler().Name(); got != string(kstm.SchedAdaptive) {
			t.Errorf("%s: scheduler %q, want adaptive", kind, got)
		}
	}
}

// TestServePerWorkerMigrates serves `-sharding perworker -readapt` over
// loopback and drives it with one client whose keys drift across the key
// space, so the re-adapting partition moves ranges between the two workers.
// Every lookup of the client's own earlier insert must hit, and at least one
// migration epoch must have moved keys.
func TestServePerWorkerMigrates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type up struct {
		srv  *server.Server
		addr net.Addr
	}
	ready := make(chan up, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-sharding", "perworker",
			"-readapt", "-threshold", "500"}, func(srv *server.Server, addr net.Addr) { ready <- up{srv, addr} })
	}()
	var u up
	select {
	case u = <-ready:
	case err := <-done:
		t.Fatalf("run: %v", err)
	}
	c, err := client.Dial(u.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const total = 4000
	r := rng.New(1)
	var inserted []uint32
	misses := 0
	for i := 0; i < total; i++ {
		// A Gaussian whose mean slides from 1/8 to 7/8 of the key space.
		kf := kstm.MaxKey*(0.125+0.75*float64(i)/total) + 2000*r.NormFloat64()
		k := uint32(min(max(kf, 0), kstm.MaxKey))
		if _, err := c.DoBool(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, k)
		if i%4 == 3 {
			q := inserted[r.Intn(len(inserted))]
			found, err := c.DoBool(ctx, kstm.Task{Key: uint64(q), Op: kstm.OpLookup, Arg: q})
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Errorf("%d of %d own-insert lookups missed", misses, total/4)
	}
	if m := u.srv.Stats().Migrations; m.Epochs == 0 || m.KeysMoved == 0 {
		t.Errorf("migrations = %+v, want at least one epoch that moved keys", m)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("run: %v", err)
	}
}

// TestBuildExecutorCounters checks the -structure counters wiring, with and
// without -split: the commutative ops round-trip and a lookup reads an int64
// sum either way.
func TestBuildExecutorCounters(t *testing.T) {
	for _, split := range []bool{false, true} {
		ex, err := buildExecutor(structureCounters, kstm.ShardShared, 2, 64, 10000, false, split)
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
	ctx := context.Background()
	if err := run(ctx, []string{"-structure", "btree", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Error("unknown structure accepted by run")
	}
	if err := run(ctx, []string{"-bogus"}, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	// Per-worker shards always migrate; there is no flag to ask for it.
	if err := run(ctx, []string{"-sharding", "perworker", "-migrate"}, nil); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined: -migrate") {
		t.Errorf("-migrate: err = %v, want an unknown flag", err)
	}
	if err := run(ctx, []string{"-split", "-addr", "127.0.0.1:0"}, nil); err == nil {
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
