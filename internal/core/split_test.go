package core

import (
	"context"
	"fmt"
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
			name: "bad epoch",
			opts: []Option{WithWorkload(cw), WithWorkers(2), WithSplitPhase(SplitEpoch(-time.Millisecond))},
			want: "SplitEpoch",
		},
		{
			name: "demote above promote",
			opts: []Option{WithWorkload(cw), WithWorkers(2), WithSplitPhase(SplitPromoteShare(0.05), SplitDemoteShare(0.5, 2))},
			want: "SplitDemoteShare",
		},
		{
			name: "static overflow",
			opts: []Option{WithWorkload(cw), WithWorkers(2), WithSplitPhase(SplitMaxKeys(1), SplitKeys(1, 2))},
			want: "SplitKeys",
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

// N submitters × commutative Adds/Max on a statically split key must equal
// the sequential result after Drain — the ISSUE's merge-correctness test.
// Run with -race.
func TestSplitMergeEquivalence(t *testing.T) {
	const (
		workers    = 4
		submitters = 8
		perSub     = 1500
		hotKey     = 3
	)
	ex, w := newSplitCounterExecutor(t, 16, workers,
		WithSplitPhase(SplitKeys(hotKey), SplitEpoch(500*time.Microsecond)))
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
	// dynamically promoted them alongside the static hot key.
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
		t.Errorf("Split.Keys = %d, want >= 1 (static key must stay split)", st.Split.Keys)
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
	ex, _ := newSplitCounterExecutor(t, 8, 4,
		WithSplitPhase(SplitKeys(hotKey), SplitEpoch(time.Millisecond)))
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
// no delta is lost across promote, split operation, and demote.
func TestSplitDemoteUnderLoad(t *testing.T) {
	const keys = 64
	ex, w := newSplitCounterExecutor(t, keys, 4,
		WithSplitPhase(
			SplitEpoch(200*time.Microsecond),
			SplitWindow(512),
			SplitPromoteShare(0.3),
			SplitDemoteShare(0.05, 2),
		))
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
	ex, w := newSplitCounterExecutor(t, 8, 2,
		// An epoch long enough that the coordinator never merges on its own
		// during the test: the flush at halt is what lands the deltas.
		WithSplitPhase(SplitKeys(hotKey), SplitEpoch(time.Hour)))
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
		WithSplitPhase(SplitKeys(hotKey), SplitEpoch(500*time.Microsecond)),
	)
	if err != nil {
		t.Fatal(err)
	}
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
