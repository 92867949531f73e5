package harness

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/rng"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// fastOptions keep harness tests quick: 1 run, short horizon, few points.
func fastOptions() Options {
	o := DefaultOptions()
	o.Runs = 1
	o.Threads = []int{2, 8}
	o.DurationCycles = 40_000_000
	o.RealTasks = 2000
	return o
}

func TestTableRenderAndSeries(t *testing.T) {
	tb := &Table{
		ID:    "demo",
		Title: "Demo",
		Cols:  []string{"x", "y"},
		Rows:  [][]float64{{1, 2.5}, {2, 3.25}},
		Notes: []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "Demo", "x", "y", "2.5", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	tb.RenderCSV(&buf)
	if !strings.HasPrefix(buf.String(), "x,y\n1,2.5\n") {
		t.Errorf("csv = %q", buf.String())
	}
	ys, err := tb.Series("y")
	if err != nil || len(ys) != 2 || ys[1] != 3.25 {
		t.Fatalf("Series = %v, %v", ys, err)
	}
	if _, err := tb.Series("z"); err == nil {
		t.Error("Series(z) succeeded")
	}
}

func TestFormatCell(t *testing.T) {
	if formatCell(3) != "3" {
		t.Errorf("formatCell(3) = %q", formatCell(3))
	}
	if formatCell(3.14159) != "3.142" {
		t.Errorf("formatCell(pi) = %q", formatCell(3.14159))
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("incomplete experiment: %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	// kbench regenerates the paper's figures and ablations plus the two
	// experiments no BENCHMARK.json workload covers (sharding, faults).
	want := []string{
		"fig3-uniform", "fig3-gaussian", "fig3-exponential", "fig4-overhead",
		"tr-rbtree", "tr-sortedlist", "tr-contention", "tr-balance",
		"ablation-threshold", "ablation-steal", "ablation-readapt",
		"ablation-queue", "ablation-cm", "ablation-sortbatch",
		"sharding", "faults",
	}
	if len(exps) != len(want) {
		t.Errorf("%d experiments registered, want %d", len(exps), len(want))
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing required experiment %q", id)
		}
	}
	if _, err := ByID("fig3-uniform"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID(nope) succeeded")
	}
}

func TestFig3UniformShape(t *testing.T) {
	e, err := ByID("fig3-uniform")
	if err != nil {
		t.Fatal(err)
	}
	o := fastOptions()
	o.DurationCycles = 0 // default horizon: needed for warm caches
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	tb := tables[0]
	rr, _ := tb.Series("roundrobin")
	ad, _ := tb.Series("adaptive")
	for i := range rr {
		if ad[i] <= rr[i] {
			t.Errorf("row %d: adaptive %.3g <= roundrobin %.3g", i, ad[i], rr[i])
		}
	}
}

func TestFig3ExponentialShape(t *testing.T) {
	e, err := ByID("fig3-exponential")
	if err != nil {
		t.Fatal(err)
	}
	o := fastOptions()
	o.DurationCycles = 0
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	fx, _ := tb.Series("fixed")
	ad, _ := tb.Series("adaptive")
	// Fixed flat: last point not much above first; adaptive clearly above
	// fixed at high worker counts.
	if fx[len(fx)-1] > fx[0]*1.4 {
		t.Errorf("fixed not flat under exponential: %v", fx)
	}
	if ad[len(ad)-1] < fx[len(fx)-1]*1.5 {
		t.Errorf("adaptive (%v) not well above fixed (%v) at high workers", ad, fx)
	}
}

func TestFig4Shape(t *testing.T) {
	e, _ := ByID("fig4-overhead")
	o := fastOptions()
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	ratios, _ := tb.Series("ratio")
	if ratios[0] < 1.2 {
		t.Errorf("overhead ratio at 2 threads = %.2f, want > 1.2", ratios[0])
	}
	if ratios[len(ratios)-1] > ratios[0] {
		t.Errorf("ratio did not shrink with threads: %v", ratios)
	}
}

func TestContentionExperiment(t *testing.T) {
	e, _ := ByID("tr-contention")
	o := fastOptions()
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 9 { // 3 structures x 3 distributions
		t.Fatalf("%d rows", len(tb.Rows))
	}
	rr, _ := tb.Series("roundrobin")
	// Hash-table rows (structure index 0) must show negligible contention.
	for i, row := range tb.Rows {
		if row[0] == 0 && rr[i] > 0.02 {
			t.Errorf("hashtable contention %.4f > 0.02 (row %d)", rr[i], i)
		}
	}
}

func TestBalanceExperiment(t *testing.T) {
	e, _ := ByID("tr-balance")
	tables, err := e.Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	fx, _ := tb.Series("fixed")
	ad, _ := tb.Series("adaptive")
	// Exponential row (index 2): fixed severely imbalanced, adaptive not.
	if fx[2] < 3 {
		t.Errorf("fixed imbalance under exponential = %.2f", fx[2])
	}
	if ad[2] > 2 {
		t.Errorf("adaptive imbalance under exponential = %.2f", ad[2])
	}
}

func TestThresholdAblation(t *testing.T) {
	e, _ := ByID("ablation-threshold")
	tables, err := e.Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 4 {
		t.Fatalf("rows = %d", len(tables[0].Rows))
	}
}

func TestStealAblation(t *testing.T) {
	e, _ := ByID("ablation-steal")
	o := fastOptions()
	o.Threads = []int{8}
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	off, _ := tb.Series("nosteal")
	on, _ := tb.Series("steal")
	if on[0] <= off[0] {
		t.Errorf("stealing did not help fixed under skew: %v vs %v", on[0], off[0])
	}
}

func TestReAdaptAblation(t *testing.T) {
	e, _ := ByID("ablation-readapt")
	tables, err := e.Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	imb, _ := tb.Series("imbalance")
	if imb[1] >= imb[0] {
		t.Errorf("re-adaptation (%.2f) not better balanced than one-shot (%.2f) under drift", imb[1], imb[0])
	}
}

func TestQueueAblationReal(t *testing.T) {
	e, _ := ByID("ablation-queue")
	tables, err := e.Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	thr, _ := tables[0].Series("throughput")
	for i, v := range thr {
		if v <= 0 {
			t.Errorf("queue kind %d throughput %v", i, v)
		}
	}
}

func TestSortBatchAblationReal(t *testing.T) {
	e, _ := ByID("ablation-sortbatch")
	o := fastOptions()
	o.RealTasks = 1500
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	thr, _ := tables[0].Series("throughput")
	if len(thr) != 4 {
		t.Fatalf("rows = %d", len(thr))
	}
	for i, v := range thr {
		if v <= 0 {
			t.Errorf("batch row %d throughput %v", i, v)
		}
	}
}

func TestCMAblationReal(t *testing.T) {
	e, _ := ByID("ablation-cm")
	o := fastOptions()
	o.RealTasks = 1000
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	thr, _ := tables[0].Series("throughput")
	if len(thr) < 10 {
		t.Fatalf("only %d managers measured", len(thr))
	}
}

func TestRealModeFig3Point(t *testing.T) {
	// Real mode end-to-end: hash table on the actual STM through the
	// executor (scaling is not asserted — single-CPU hosts).
	o := fastOptions()
	o.Mode = ModeReal
	o.Threads = []int{2}
	tb, err := schedulerSweep(o, txds.KindHashTable, "uniform", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"roundrobin", "fixed", "adaptive"} {
		s, err := tb.Series(col)
		if err != nil {
			t.Fatal(err)
		}
		if s[0] <= 0 {
			t.Errorf("%s real throughput = %v", col, s[0])
		}
	}
}

func TestRealModeRBTreePoint(t *testing.T) {
	o := fastOptions()
	o.Mode = ModeReal
	o.RealTasks = 800
	thr, res, err := realPoint(o, txds.KindRBTree, "gaussian", core.SchedAdaptive, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 || res.Completed == 0 {
		t.Fatalf("rbtree real: thr=%v res=%+v", thr, res)
	}
}

func TestRealModeSortedListCapped(t *testing.T) {
	o := fastOptions()
	o.Mode = ModeReal
	o.RealTasks = 100000 // should be capped internally for the list
	thr, _, err := realPoint(o, txds.KindSortedList, "exponential", core.SchedRoundRobin, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatal("list real throughput <= 0")
	}
}

func TestDictSourceSplitsOps(t *testing.T) {
	src := NewDictSource(dist.NewUniform(1), nil)
	inserts, deletes := 0, 0
	for i := 0; i < 1000; i++ {
		task := src.Next()
		switch task.Op {
		case core.OpInsert:
			inserts++
		case core.OpDelete:
			deletes++
		default:
			t.Fatalf("unexpected op %v", task.Op)
		}
		if task.Key != uint64(task.Arg) {
			t.Fatal("nil keyFn should use identity")
		}
	}
	if inserts == 0 || deletes == 0 {
		t.Fatalf("ops not mixed: %d/%d", inserts, deletes)
	}
}

func TestNewRealConfigHashKeyFn(t *testing.T) {
	cfg, err := NewRealConfig(txds.KindHashTable, "uniform", core.SchedFixed, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := cfg.NewSource(0)
	for i := 0; i < 100; i++ {
		task := src.Next()
		if task.Key >= txds.DefaultBuckets {
			t.Fatalf("hash txn key %d outside bucket space", task.Key)
		}
	}
	if _, err := NewRealConfig(txds.KindHashTable, "pareto", core.SchedFixed, 2, 2, 1); err == nil {
		t.Error("bad dist accepted")
	}
	if _, err := NewRealConfig("btree", "uniform", core.SchedFixed, 2, 2, 1); err == nil {
		t.Error("bad structure accepted")
	}
}

func TestDictWorkloadOps(t *testing.T) {
	set := txds.NewHashTable(16)
	w := NewDictWorkload(set)
	th := stm.New().NewThread()
	// Each op returns its logical result as the typed task value.
	want := map[core.Op]any{
		core.OpInsert: true, // was absent
		core.OpLookup: true, // present now
		core.OpDelete: true, // was present
		core.OpNoop:   nil,
	}
	for _, op := range []core.Op{core.OpInsert, core.OpLookup, core.OpDelete, core.OpNoop} {
		v, err := w.Execute(th, core.Task{Op: op, Arg: 3})
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		if v != want[op] {
			t.Errorf("op %v value = %v, want %v", op, v, want[op])
		}
	}
	// Lookup after delete reports the miss.
	if v, err := w.Execute(th, core.Task{Op: core.OpLookup, Arg: 3}); err != nil || v != false {
		t.Errorf("lookup after delete = (%v, %v), want (false, nil)", v, err)
	}
	if _, err := w.Execute(th, core.Task{Op: core.Op(99)}); err == nil {
		t.Error("unknown op accepted")
	}
	if w.Set() != set {
		t.Error("Set() does not return the wrapped dictionary")
	}
}

func TestShardingExperiment(t *testing.T) {
	e, err := ByID("sharding")
	if err != nil {
		t.Fatal(err)
	}
	o := fastOptions()
	o.RealTasks = 1600
	tables, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (shared, perworker)", len(tb.Rows))
	}
	thr, err := tb.Series("throughput")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range thr {
		if v <= 0 {
			t.Errorf("mode %d: non-positive throughput %v", i, v)
		}
	}
	for _, col := range []string{"wait_p99_us", "svc_p50_us", "svc_p99_us"} {
		s, err := tb.Series(col)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s {
			if v < 0 {
				t.Errorf("mode %d: negative %s %v", i, col, v)
			}
		}
	}
	t.Logf("sharding table: shared=%.0f txn/s, perworker=%.0f txn/s", thr[0], thr[1])
}

// TestMigrationVisibilityUnderDrift drives ShardPerWorker + re-adaptation
// with a drifting key stream, the served configuration (kstmd -migrate,
// benchmark inproc-migrate): dictionary-key dispatch over key-range stores.
// Clients insert fresh keys and re-look-up their own earlier inserts; nothing
// deletes, so every lookup miss is a key stranded in a shard its range was
// re-routed away from. MigrateOnRepartition must report zero such misses
// while completing at least one hand-off epoch that moves keys, and
// MigrateOff must still re-partition on the identical layout (its miss count
// depends on timing, so only the migrated side is asserted exactly; the
// deterministic off-mode reproducer lives in internal/core).
func TestMigrationVisibilityUnderDrift(t *testing.T) {
	st, vis := driftingInsertLookup(t, core.MigrateOnRepartition, 4, 4, 8000)
	if vis != 0 {
		t.Errorf("MigrateOnRepartition: %d visibility errors, want 0", vis)
	}
	if st.Migrations.Epochs == 0 {
		t.Error("no migration epoch completed — the drift did not force a re-partition")
	}
	if st.Migrations.Epochs > 0 && st.Migrations.KeysMoved == 0 {
		t.Error("migration epochs completed without moving keys")
	}
	if st.Completed == 0 {
		t.Error("degenerate run: nothing completed")
	}
	stOff, _ := driftingInsertLookup(t, core.MigrateOff, 4, 4, 8000)
	if stOff.Migrations.Epochs != 0 || stOff.Migrations.KeysMoved != 0 {
		t.Errorf("MigrateOff reported migrations: %+v", stOff.Migrations)
	}
	if stOff.SchedulerEpochs == 0 {
		t.Error("MigrateOff: scheduler never re-partitioned")
	}
}

// driftingInsertLookup runs total synchronous submissions from clients
// goroutines against a sharded, re-adapting hash-table executor and returns
// its final stats and the number of own-insert lookups that missed. The key
// stream is a Gaussian whose mean slides from 1/8 to 7/8 of the key space
// with GLOBAL progress, so every 1500-sample adaptation window sees a
// different mass profile and the learned partition genuinely moves.
func driftingInsertLookup(t *testing.T, mode core.MigrationMode, workers, clients, total int) (core.ExecStats, uint64) {
	t.Helper()
	opts := []core.Option{
		core.WithSharding(core.ShardPerWorker),
		core.WithWorkloadFactory(NewKeyRangeDictFactory(txds.KindHashTable)),
		core.WithWorkers(workers),
		core.WithSchedulerKind(core.SchedAdaptive, 0, dist.MaxKey,
			core.WithThreshold(1500), core.WithReAdaptation()),
	}
	if mode != core.MigrateOff {
		opts = append(opts, core.WithMigration(mode))
	}
	ex, err := core.NewExecutor(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	const (
		keyStart, keyEnd = 8192.0, 57344.0
		keyStddev        = 3000.0
	)
	var progress, visErrors atomic.Uint64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(1 + uint64(c)*0x9e37)
			var inserted []uint32
			for i := 0; i < total/clients; i++ {
				frac := float64(progress.Add(1)) / float64(total)
				kf := keyStart + frac*(keyEnd-keyStart) + keyStddev*r.NormFloat64()
				k := uint32(min(max(kf, 0), dist.MaxKey))
				if _, err := ex.Submit(ctx, core.Task{Key: uint64(k), Op: core.OpInsert, Arg: k}); err != nil {
					errCh <- err
					return
				}
				inserted = append(inserted, k)
				if i%4 == 3 {
					q := inserted[r.Intn(len(inserted))]
					res, err := ex.Submit(ctx, core.Task{Key: uint64(q), Op: core.OpLookup, Arg: q})
					if err != nil {
						errCh <- err
						return
					}
					if found, _ := res.Value.(bool); !found {
						visErrors.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := ex.MigrationErr(); err != nil {
		t.Fatal(err)
	}
	return ex.Stats(), visErrors.Load()
}

// TestKeyRangeDictFactoryAliasing pins the kstmd store pairing: with
// dict-key dispatch (Task.Key == Arg), hand-off ranges are dictionary-key
// ranges — a hash-table store must move ONLY the keys in the range, not
// every key aliased into the same buckets (k and k+30031 share a bucket).
func TestKeyRangeDictFactoryAliasing(t *testing.T) {
	f := NewKeyRangeDictFactory(txds.KindHashTable)
	f.NewShard(0)
	f.NewShard(1)
	src, dst := f.Store(0), f.Store(1)
	if src == nil || dst == nil {
		t.Fatal("key-range factory returned nil stores")
	}
	s := stm.New()
	th := s.NewThread()
	table := f.Shard(0).(*txds.HashTable)
	alias := uint32(table.Buckets()) + 7 // same bucket as key 7
	for _, k := range []uint32{7, alias} {
		if _, err := table.Insert(th, k); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := src.ExtractRange(th, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != 7 {
		t.Fatalf("ExtractRange(0,1000) = %v, want [7] (alias %d must stay)", keys, alias)
	}
	if err := dst.InstallKeys(th, keys); err != nil {
		t.Fatal(err)
	}
	if found, err := table.Contains(th, alias); err != nil || !found {
		t.Fatalf("aliased key %d lost from the source shard: %v %v", alias, found, err)
	}
	// A full-size structure-space store keeps bucket semantics for executors
	// that dispatch on keyFn = Hash: the same range moves the whole bucket.
	g := NewDictFactory(txds.KindHashTable, 1)
	g.NewShard(0)
	gt := g.Shard(0).(*txds.HashTable)
	for _, k := range []uint32{7, alias} {
		if _, err := gt.Insert(th, k); err != nil {
			t.Fatal(err)
		}
	}
	bkeys, err := g.Store(0).ExtractRange(th, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bkeys) != 2 {
		t.Fatalf("bucket-space ExtractRange(0,1000) = %v, want both aliases", bkeys)
	}
}

// TestShardedThroughputNotWorse is the acceptance guard in test form:
// ShardPerWorker must not fall meaningfully below shared-mode throughput on
// the Gaussian adaptive workload at 8 workers. The "≥" comparison is the
// kbench sharding experiment's, on multicore hardware; the margin here
// absorbs single-host scheduling noise so tier-1 stays stable.
func TestShardedThroughputNotWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("perf-ratio comparison is meaningless under -short/race instrumentation")
	}
	o := fastOptions()
	o.RealTasks = 6000
	best := func(mode core.ShardMode) float64 {
		var b float64
		for r := 0; r < 3; r++ {
			st, elapsed, err := ShardingPoint(o, "gaussian", mode, 8, 16, o.Seed+uint64(r))
			if err != nil {
				t.Fatal(err)
			}
			if thr := float64(st.Completed) / elapsed.Seconds(); thr > b {
				b = thr
			}
		}
		return b
	}
	shared := best(core.ShardShared)
	sharded := best(core.ShardPerWorker)
	t.Logf("shared %.0f txn/s, sharded %.0f txn/s (x%.2f)", shared, sharded, sharded/shared)
	// Regression guard only: on a loaded or single-core host the two modes
	// are expected to tie, so the margin is generous. The ≥ demonstration
	// lives in the kbench `sharding` experiment on real multicore hardware.
	if sharded < shared*0.5 {
		t.Errorf("sharded throughput %.0f fell below 0.5x shared %.0f", sharded, shared)
	}
}

func TestNewShardedExecutorIsolation(t *testing.T) {
	ex, keyFn, err := NewShardedExecutor(txds.KindHashTable, core.SchedFixed, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		t.Fatal(err)
	}
	// One insert per fixed key range: each lands in its worker's shard.
	keys := []uint32{9, 29000}
	for _, k := range keys {
		v, err := ex.Submit(ctx, core.Task{Key: keyFn(k), Op: core.OpInsert, Arg: k})
		if err != nil || v.Value != true {
			t.Fatalf("insert %d = (%v, %v)", k, v.Value, err)
		}
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if ex.NumShards() != 2 {
		t.Fatalf("NumShards = %d", ex.NumShards())
	}
	// Shard workloads are private DictWorkloads over distinct sets; each
	// saw exactly its own range's key.
	th0 := ex.ShardSTM(0).NewThread()
	th1 := ex.ShardSTM(1).NewThread()
	set0 := ex.ShardWorkload(0).(*DictWorkload).Set()
	set1 := ex.ShardWorkload(1).(*DictWorkload).Set()
	if set0 == set1 {
		t.Fatal("shards share a dictionary")
	}
	if found, _ := set0.Contains(th0, 9); !found {
		t.Error("shard 0 missing its key")
	}
	if found, _ := set0.Contains(th0, 29000); found {
		t.Error("shard 0 holds shard 1's key")
	}
	if found, _ := set1.Contains(th1, 29000); !found {
		t.Error("shard 1 missing its key")
	}
}

func TestNewOpenExecutorLifecycle(t *testing.T) {
	ex, keyFn, err := NewOpenExecutor(txds.KindHashTable, core.SchedAdaptive, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Hash-table transaction keys must live in bucket space.
	if k := keyFn(1 << 15); k >= txds.DefaultBuckets {
		t.Fatalf("keyFn(32768) = %d outside bucket space", k)
	}
	res, err := ex.Submit(context.Background(), core.Task{Key: keyFn(9), Op: core.OpInsert, Arg: 9})
	if err != nil || res.Err != nil {
		t.Fatalf("Submit = (%+v, %v)", res, err)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := ex.Stats(); st.Completed != 1 || st.STM.Commits == 0 {
		t.Fatalf("stats %+v", st)
	}
	if _, _, err := NewOpenExecutor("btree", core.SchedAdaptive, 2); err == nil {
		t.Error("bad structure accepted")
	}
}

// TestKeyRangeStoreBatches pins the kstmd store pairing: the dictionary-key
// hash store exposes the core.RangeBatchStore face and its one-pass
// extraction matches per-range extraction.
func TestKeyRangeStoreBatches(t *testing.T) {
	f := NewKeyRangeDictFactory(txds.KindHashTable)
	w := f.NewShard(0)
	st := f.Store(0)
	if st == nil {
		t.Fatal("key-range hash store is nil")
	}
	bs, ok := st.(core.RangeBatchStore)
	if !ok {
		t.Fatal("key-range hash store does not implement core.RangeBatchStore")
	}
	th := stm.New().NewThread()
	for _, k := range []uint32{10, 20, 5000, 5001, 60000} {
		if _, err := w.Execute(th, core.Task{Op: core.OpInsert, Arg: k}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := bs.ExtractRanges(th, []core.Range{{Lo: 0, Hi: 100}, {Lo: 4000, Hi: 6000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 2 || len(out[1]) != 2 {
		t.Fatalf("batch extraction = %v", out)
	}
	// The out-of-range key survives; the extracted ones are gone.
	set := f.Shard(0)
	for k, want := range map[uint32]bool{10: false, 5000: false, 60000: true} {
		found, err := set.Contains(th, k)
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Errorf("key %d present = %v, want %v", k, found, want)
		}
	}
}

// TestNetworkUsesSameKeySpace: the faults experiment routes wire requests by
// hash-bucket key, so NewOpenExecutor's key function must agree with a
// full-size hash table on the bucket count, keeping dispatch inside the
// scheduler's key range.
func TestNetworkUsesSameKeySpace(t *testing.T) {
	ex, keyFn, err := NewOpenExecutor(txds.KindHashTable, "adaptive", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	proto := txds.NewHashTable(0)
	for k := uint32(0); k < 1000; k += 37 {
		if got, want := keyFn(k), uint64(proto.Hash(k)); got != want {
			t.Fatalf("keyFn(%d) = %d, want %d", k, got, want)
		}
		if keyFn(k) >= uint64(proto.Buckets()) {
			t.Fatalf("key %d outside bucket space", k)
		}
	}
}

// TestFaultsExperiment runs the loopback serving stack under every seeded
// fault scenario: each row must acknowledge inserts, and every acknowledged
// insert must be visible once the fault clears.
func TestFaultsExperiment(t *testing.T) {
	e, err := ByID("faults")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (clean, drop, stall, partial)", len(tb.Rows))
	}
	acked, _ := tb.Series("acked")
	vis, err := tb.Series("vis_errors")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		if acked[i] <= 0 {
			t.Errorf("scenario %d: acked = %v, want > 0", i, acked[i])
		}
		if vis[i] != 0 {
			t.Errorf("scenario %d: vis_errors = %v, want 0", i, vis[i])
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	o := fastOptions()
	o.Threads = []int{2}
	o.RealTasks = 500
	tables, err := RunAll(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < 12 {
		t.Fatalf("RunAll produced %d tables", len(tables))
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Render(&buf)
	}
	if buf.Len() == 0 {
		t.Fatal("no rendered output")
	}
}
