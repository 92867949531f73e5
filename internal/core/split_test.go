package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm/internal/splitphase"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// counterWorkload adapts txds.Counters to the split-phase workload
// contracts: scheduling key == counter index, commutative ops return nil
// values (on both the STM and the locally-absorbed path), OpLookup returns
// the counter's int64 sum.
type counterWorkload struct {
	c *txds.Counters
}

func (w *counterWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	k := uint32(t.Key)
	switch t.Op {
	case OpAdd:
		return nil, w.c.Add(th, k, int32(t.Arg))
	case OpMax:
		return nil, w.c.MergeMax(th, k, t.Arg)
	case OpMin:
		return nil, w.c.MergeMin(th, k, t.Arg)
	case OpTopK:
		return nil, w.c.TopKInsert(th, k, t.Arg)
	case OpLookup:
		v, err := w.c.Value(th, k)
		if err != nil {
			return nil, err
		}
		return v.Sum, nil
	case OpNoop:
		return nil, nil
	default:
		return nil, fmt.Errorf("counterWorkload: unknown op %v", t.Op)
	}
}

func (w *counterWorkload) CommutativeOps() map[Op]splitphase.Kind {
	return map[Op]splitphase.Kind{
		OpAdd:  splitphase.KindAdd,
		OpMax:  splitphase.KindMax,
		OpMin:  splitphase.KindMin,
		OpTopK: splitphase.KindTopK,
	}
}

func (w *counterWorkload) ApplyMerged(th *stm.Thread, key uint64, agg splitphase.Agg) error {
	return w.c.MergeAgg(th, uint32(key), agg)
}

func newSplitCounterExecutor(t *testing.T, keys int, workers int, opts ...Option) (*Executor, *counterWorkload) {
	t.Helper()
	w := &counterWorkload{c: txds.NewCounters(keys)}
	all := append([]Option{
		WithWorkload(w),
		WithWorkers(workers),
		WithSchedulerKind(SchedFixed, 0, uint64(keys-1)),
	}, opts...)
	ex, err := NewExecutor(all...)
	if err != nil {
		t.Fatal(err)
	}
	return ex, w
}

// tuneSplit stands in for the split tuning the executor does not export.
// Called between NewExecutor and Start, it applies tune (if non-nil) to the
// split configuration and puts keys in the split table as if the detector
// had promoted them; like any promoted key, they demote once their traffic
// share stays below the demote share.
func tuneSplit(ex *Executor, tune func(*splitConfig), keys ...uint64) {
	s := ex.split
	if tune != nil {
		tune(&s.cfg)
	}
	tbl := &splitTable{}
	for _, k := range keys {
		tbl.keys = append(tbl.keys, &splitKey{key: k, acc: splitphase.NewAccum(ex.cfg.workers)})
	}
	sort.Slice(tbl.keys, func(a, b int) bool { return tbl.keys[a].key < tbl.keys[b].key })
	s.table.Store(tbl)
	s.promoted.Add(uint64(len(keys)))
}

func TestSplitValidation(t *testing.T) {
	cw := &counterWorkload{c: txds.NewCounters(8)}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{
			name: "not commutative",
			opts: []Option{
				WithWorkload(WorkloadFunc(func(th *stm.Thread, t Task) (any, error) { return nil, nil })),
				WithWorkers(2), WithSplitPhase(),
			},
			want: "CommutativeWorkload",
		},
		{
			name: "negative coalesce",
			opts: []Option{WithWorkload(cw), WithWorkers(2), WithSplitPhase(SplitCoalesce(-time.Millisecond))},
			want: "SplitCoalesce",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewExecutor(tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// N submitters × commutative Adds/Max on a pre-split key must equal
// the sequential result after Drain — the ISSUE's merge-correctness test.
// Run with -race.
func TestSplitMergeEquivalence(t *testing.T) {
	const (
		workers    = 4
		submitters = 8
		perSub     = 1500
		hotKey     = 3
	)
	ex, w := newSplitCounterExecutor(t, 16, workers, WithSplitPhase())
	tuneSplit(ex, func(c *splitConfig) { c.epoch = 500 * time.Microsecond }, hotKey)
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var maxSent atomic.Uint32
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perSub; i++ {
				if _, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpAdd, Arg: 1}); err != nil {
					t.Errorf("submitter %d add %d: %v", s, i, err)
					return
				}
				if i%10 == 0 {
					v := uint32(s*perSub + i)
					for {
						old := maxSent.Load()
						if v <= old || maxSent.CompareAndSwap(old, v) {
							break
						}
					}
					if _, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpMax, Arg: v}); err != nil {
						t.Errorf("submitter %d max: %v", s, err)
						return
					}
				}
				// Background traffic on non-split keys exercises the mixed
				// path: table lookups that miss, STM execution, sampling.
				if i%7 == 0 {
					if _, err := ex.Submit(ctx, Task{Key: uint64(1 + (s+i)%2), Op: OpAdd, Arg: 1}); err != nil {
						t.Errorf("submitter %d cold add: %v", s, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	th := ex.ShardSTM(0).NewThread()
	v, err := w.c.Value(th, hotKey)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(submitters * perSub); v.Sum != want {
		t.Errorf("split key sum = %d, want %d", v.Sum, want)
	}
	if !v.HasMax || v.Max != maxSent.Load() {
		t.Errorf("split key max = %v/%d, want true/%d", v.HasMax, v.Max, maxSent.Load())
	}
	// The cold keys conserve their adds too, whether or not the detector
	// dynamically promoted them alongside the pre-split hot key.
	var cold int64
	for _, k := range []uint32{1, 2} {
		cv, err := w.c.Value(th, k)
		if err != nil {
			t.Fatal(err)
		}
		cold += cv.Sum
	}
	// Per submitter: i in [0,perSub) with i%7 == 0 → ceil(perSub/7) adds.
	if want := int64(submitters * ((perSub + 6) / 7)); cold != want {
		t.Errorf("cold key sums = %d, want %d", cold, want)
	}
	st := ex.Stats()
	if st.Split.Keys < 1 {
		t.Errorf("Split.Keys = %d, want >= 1 (the hot key must stay split)", st.Split.Keys)
	}
	if st.Split.MergedEpochs == 0 {
		t.Error("Split.MergedEpochs = 0, want > 0 (sustained traffic must merge mid-run, not only at halt)")
	}
	if err := ex.SplitErr(); err != nil {
		t.Errorf("SplitErr = %v", err)
	}
}

// A reader parked on a split key never observes a partial merge: once its
// preceding Adds have settled, the released lookup reports exactly their
// total.
func TestSplitParkedReaderVisibility(t *testing.T) {
	const hotKey = 0
	ex, _ := newSplitCounterExecutor(t, 8, 4, WithSplitPhase())
	tuneSplit(ex, nil, hotKey)
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	ctx := context.Background()
	total := int64(0)
	for round := 0; round < 5; round++ {
		const adds = 200
		futs := make([]*Future, 0, adds)
		for i := 0; i < adds; i++ {
			fut, err := ex.SubmitAsync(ctx, Task{Key: hotKey, Op: OpAdd, Arg: 1})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, fut := range futs {
			if res, err := fut.Wait(ctx); err != nil || res.Err != nil {
				t.Fatalf("add settle: %v / %v", err, res.Err)
			}
		}
		total += adds
		// Every Add above settled (locally absorbed or committed) before
		// this lookup is submitted, so the epoch that releases the lookup
		// has folded them all: the read is exact, not partial.
		res, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpLookup})
		if err != nil {
			t.Fatalf("round %d lookup: %v", round, err)
		}
		sum, ok := res.Value.(int64)
		if !ok {
			t.Fatalf("round %d lookup value = %T(%v), want int64", round, res.Value, res.Value)
		}
		if sum != total {
			t.Fatalf("round %d: parked reader saw %d, want exactly %d (partial or stale merge)", round, sum, total)
		}
	}
	if st := ex.SplitStats(); st.ParkedTasks == 0 {
		t.Error("ParkedTasks = 0, want > 0 (lookups on a split key must park)")
	}
}

// Hot traffic promotes a key; shifting the load away demotes it under load;
// no delta is lost across promote, split operation, and demote. It runs at
// the values the split phase ships with (a 4096-sample window, promote at
// 5%, demote below 2% for 3 folds, a 1ms epoch, at most 16 keys), driven by
// traffic alone. With 256 counters a uniformly loaded key carries 0.4%.
func TestSplitDemoteUnderLoad(t *testing.T) {
	const keys = 256
	ex, w := newSplitCounterExecutor(t, keys, 4, WithSplitPhase())
	if ex.split.cfg != defaultSplitConfig() {
		t.Fatalf("split config %+v, want the shipped %+v", ex.split.cfg, defaultSplitConfig())
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	totals := make([]int64, keys)
	submit := func(key uint64) {
		if _, err := ex.Submit(ctx, Task{Key: key, Op: OpAdd, Arg: 1}); err != nil {
			t.Fatalf("add key %d: %v", key, err)
		}
		totals[key]++
	}
	// Phase 1: concentrate on key 5 until the detector promotes it.
	const hot = 5
	deadline := time.Now().Add(10 * time.Second)
	for ex.SplitStats().Keys == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("key never promoted: stats %+v", ex.SplitStats())
		}
		for i := 0; i < 200; i++ {
			submit(hot)
		}
		submit(uint64(len(totals) - 1))
	}
	// Phase 2: keep the key under sustained uniform load (every key gets
	// traffic, so windows keep folding) until the hot key's share decays and
	// it demotes — the demote-under-load case: operations on the key keep
	// arriving while it leaves the table.
	deadline = time.Now().Add(20 * time.Second)
	k := uint64(0)
	for ex.SplitStats().Demoted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("key never demoted: stats %+v", ex.SplitStats())
		}
		submit(k % keys)
		k++
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	th := ex.ShardSTM(0).NewThread()
	for key, want := range totals {
		v, err := w.c.Value(th, uint32(key))
		if err != nil {
			t.Fatal(err)
		}
		if v.Sum != want {
			t.Errorf("key %d sum = %d, want %d", key, v.Sum, want)
		}
	}
	st := ex.SplitStats()
	if st.Promoted == 0 || st.Demoted == 0 {
		t.Errorf("stats %+v, want promoted and demoted > 0", st)
	}
	if st.Keys != 0 {
		t.Errorf("Keys = %d after demote, want 0", st.Keys)
	}
}

// A hard Stop with dirty accumulators must still land every acknowledged
// delta: absorbed ops settled as completed, so halt's final flush folds
// them into the store.
func TestSplitStopFlushesAccumulators(t *testing.T) {
	const hotKey = 2
	ex, w := newSplitCounterExecutor(t, 8, 2, WithSplitPhase())
	// An epoch long enough that the coordinator never merges on its own
	// during the test: the flush at halt is what lands the deltas.
	tuneSplit(ex, func(c *splitConfig) { c.epoch = time.Hour }, hotKey)
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const adds = 300
	for i := 0; i < adds; i++ {
		if res, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpAdd, Arg: 1}); err != nil || res.Err != nil {
			t.Fatalf("add %d: %v / %v", i, err, res.Err)
		}
	}
	if err := ex.Stop(); err != nil {
		t.Fatal(err)
	}
	th := ex.ShardSTM(0).NewThread()
	v, err := w.c.Value(th, hotKey)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sum != adds {
		t.Errorf("post-Stop sum = %d, want %d (accumulator flush lost deltas)", v.Sum, adds)
	}
}

// Split phase under ShardPerWorker: the merge must install into the shard
// of the key's owning worker, and a parked reader released to that owner
// must see it.
func TestSplitPerWorkerShards(t *testing.T) {
	const (
		workers = 4
		keys    = 16
		hotKey  = 9
	)
	shards := make([]*counterWorkload, workers)
	factory := WorkloadFactoryFunc(func(worker int) Workload {
		shards[worker] = &counterWorkload{c: txds.NewCounters(keys)}
		return shards[worker]
	})
	ex, err := NewExecutor(
		WithWorkloadFactory(factory),
		WithSharding(ShardPerWorker),
		WithWorkers(workers),
		WithSchedulerKind(SchedFixed, 0, keys-1),
		WithSplitPhase(),
	)
	if err != nil {
		t.Fatal(err)
	}
	tuneSplit(ex, func(c *splitConfig) { c.epoch = 500 * time.Microsecond }, hotKey)
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const adds = 500
	for i := 0; i < adds; i++ {
		if res, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpAdd, Arg: 1}); err != nil || res.Err != nil {
			t.Fatalf("add %d: %v / %v", i, err, res.Err)
		}
	}
	res, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpLookup})
	if err != nil || res.Err != nil {
		t.Fatalf("lookup: %v / %v", err, res.Err)
	}
	if sum, _ := res.Value.(int64); sum != adds {
		t.Errorf("parked reader on per-worker shard saw %d, want %d", sum, adds)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	// The merged state lives in exactly the owning worker's shard.
	owner := ex.Scheduler().Pick(hotKey)
	v, err := shards[owner].c.Value(ex.ShardSTM(owner).NewThread(), hotKey)
	if err != nil {
		t.Fatal(err)
	}
	if v.Sum != adds {
		t.Errorf("owner shard %d sum = %d, want %d", owner, v.Sum, adds)
	}
}

// counterSum reads key's sum straight from shard 0's store: what a merge
// has installed, whatever the accumulators still hold.
func counterSum(t *testing.T, ex *Executor, w *counterWorkload, key uint32) int64 {
	t.Helper()
	v, err := w.c.Value(ex.ShardSTM(0).NewThread(), key)
	if err != nil {
		t.Fatal(err)
	}
	return v.Sum
}

// waitSum polls key's installed sum until it reaches want or d runs out.
func waitSum(t *testing.T, ex *Executor, w *counterWorkload, key uint32, want int64, d time.Duration, what string) {
	t.Helper()
	for end := time.Now().Add(d); ; time.Sleep(100 * time.Microsecond) {
		got := counterSum(t, ex, w, key)
		if got == want {
			return
		}
		if time.Now().After(end) {
			t.Fatalf("%s: installed sum %d after %v, want %d", what, got, d, want)
		}
	}
}

// TestSplitResumesFromDeepIdle pins the split coordinator's wake from deep
// idle (more than splitIdleTicks quiet epochs): a detector sample must
// restart the folding that promotes a hot key, and an absorbed add with no
// reader to park must still be merged. Without the worker-side notify after
// Sample the key is never promoted; without the one after Apply the add
// stays in its accumulator.
func TestSplitResumesFromDeepIdle(t *testing.T) {
	const (
		hotKey = 5
		epoch  = 200 * time.Microsecond
	)
	ex, w := newSplitCounterExecutor(t, 64, 2, WithSplitPhase(SplitCoalesce(0)))
	tuneSplit(ex, func(c *splitConfig) { c.epoch, c.window = epoch, 256 })
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	ctx := context.Background()
	add := func() {
		t.Helper()
		if res, err := ex.Submit(ctx, Task{Key: hotKey, Op: OpAdd, Arg: 1}); err != nil || res.Err != nil {
			t.Fatalf("add: %v / %v", err, res.Err)
		}
	}
	time.Sleep(40 * epoch)
	adds := int64(0)
	for end := time.Now().Add(2 * time.Second); ex.Stats().Split.Promoted == 0; adds++ {
		if time.Now().After(end) {
			t.Fatalf("key %d not promoted after %d adds in 2s: the coordinator never woke from deep idle", hotKey, adds)
		}
		add()
	}
	// Adds absorbed after the promotion merge while the coordinator ticks.
	waitSum(t, ex, w, hotKey, adds, time.Second, "merge after promotion")
	time.Sleep(40 * epoch)
	add()
	waitSum(t, ex, w, hotKey, adds+1, time.Second, "absorbed add after deep idle")
}

// coreGoroutines counts goroutines running an executor worker or an epoch
// coordinator (a split runner or a migration hand-off).
func coreGoroutines() int {
	n := 0
	for _, g := range goroutineStacks() {
		if strings.Contains(g, "kstm/internal/core.(*Executor).worker(") ||
			strings.Contains(g, "kstm/internal/core.(*splitRunner).loop(") ||
			strings.Contains(g, "kstm/internal/core.(*migrator).migrate(") {
			n++
		}
	}
	return n
}

// TestStartStopRace races Start against a split-phase add and Stop. Every
// add Submit acknowledged must be in the store after Stop (an absorbed add
// reaches it only through halt's final flush), and no worker or coordinator
// goroutine may outlive Stop: halt must join everything Start spawned.
func TestStartStopRace(t *testing.T) {
	const hotKey = 3
	iters := 300
	if raceEnabled || testing.Short() {
		iters = 100
	}
	base := coreGoroutines()
	for i := 0; i < iters; i++ {
		ex, w := newSplitCounterExecutor(t, 8, 2, WithSplitPhase())
		tuneSplit(ex, func(c *splitConfig) { c.epoch = time.Hour }, hotKey)
		started := make(chan struct{})
		go func() {
			defer close(started)
			_ = ex.Start(context.Background())
		}()
		acked := int64(0)
		res, err := ex.Submit(context.Background(), Task{Key: hotKey, Op: OpAdd, Arg: 1})
		if err == nil && res.Err == nil {
			acked++
		}
		if err := ex.Stop(); err != nil {
			t.Fatal(err)
		}
		if n := coreGoroutines(); n > base {
			t.Fatalf("iteration %d: %d worker/coordinator goroutines alive after Stop, want at most %d", i, n, base)
		}
		<-started
		if got := counterSum(t, ex, w, hotKey); got != acked {
			t.Fatalf("iteration %d: sum %d after Stop, want %d acknowledged adds", i, got, acked)
		}
	}
}
