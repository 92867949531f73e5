package server_test

import (
	"context"
	"testing"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/harness"
	"kstm/server"
)

// counterExecutorOpts mirrors kstmd's -structure counters wiring: the keyed
// aggregate workload on a fixed key partition, with or without split phase.
func counterExecutorOpts(split bool) []kstm.Option {
	opts := []kstm.Option{
		kstm.WithWorkload(harness.NewCounterWorkload(kstm.NewCounters(harness.ContentionCounters))),
		kstm.WithWorkers(2),
		kstm.WithBackpressure(kstm.BackpressureReject),
		kstm.WithSchedulerKind(kstm.SchedFixed, 0, harness.ContentionCounters-1),
	}
	if split {
		opts = append(opts, kstm.WithSplitPhase())
	}
	return opts
}

// warmUpBatch is how many adds on key 0 the warm-up sends between checks for
// its promotion.
const warmUpBatch = 256

// runCounterScript drives one deterministic client session over loopback TCP
// and returns every lookup's observed sum in order — the complete
// client-visible output of the session — with the split stats and the
// warm-up's length. The warm-up sends adds on key 0 in batches: with split
// phase on, until the detector has promoted the key, so the script runs
// against a split key; with it off, the given number of batches, so both
// sessions send the same requests.
func runCounterScript(t *testing.T, split bool, batches int) ([]int64, kstm.SplitStats, int) {
	t.Helper()
	_, srv, addr, shutdown := startServer(t, counterExecutorOpts(split),
		server.WithMaxOp(uint8(kstm.OpTopK)),
		server.WithKeyMask(harness.ContentionCounters-1))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	deadline := time.Now().Add(10 * time.Second)
	warm := 0
	for (split && srv.Stats().Split.Keys == 0) || (!split && warm < batches) {
		if split && time.Now().After(deadline) {
			t.Fatalf("key 0 not promoted after %d adds: %+v", warm*warmUpBatch, srv.Stats().Split)
		}
		for i := 0; i < warmUpBatch; i++ {
			if _, err := c.Do(ctx, kstm.Task{Key: 0, Op: kstm.OpAdd, Arg: 1}); err != nil {
				t.Fatalf("split=%v warm-up add: %v", split, err)
			}
		}
		warm++
	}

	var sums []int64
	lookup := func(key uint64) {
		res, err := c.Do(ctx, kstm.Task{Key: key, Op: kstm.OpLookup})
		if err != nil {
			t.Fatalf("split=%v lookup key %d: %v", split, key, err)
		}
		sum, ok := res.Value.(int64)
		if !ok {
			t.Fatalf("split=%v lookup key %d: value %T(%v), want int64", split, key, res.Value, res.Value)
		}
		sums = append(sums, sum)
	}
	// Key 0 is split (when enabled), keys 1 and 2 never are: the script
	// interleaves commutative adds on both classes with lookups, so it
	// exercises local absorption, parked reads, and the plain STM path in
	// one session. A synchronous client makes the output deterministic:
	// every add has settled before the next request is sent.
	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			key := uint64(i % 3)
			if _, err := c.Do(ctx, kstm.Task{Key: key, Op: kstm.OpAdd, Arg: 2}); err != nil {
				t.Fatalf("split=%v add: %v", split, err)
			}
		}
		lookup(0)
		lookup(1)
		lookup(2)
	}
	return sums, srv.Stats().Split, warm
}

// TestSplitPhaseClientInvisible is the split-phase e2e acceptance test:
// the same scripted session over loopback TCP produces byte-identical
// client-visible results with split phase off and on — split execution is
// an executor-internal optimization, not a semantics change.
func TestSplitPhaseClientInvisible(t *testing.T) {
	on, onStats, warm := runCounterScript(t, true, 0)
	off, offStats, _ := runCounterScript(t, false, warm)
	t.Logf("key 0 promoted after %d warm-up adds", warm*warmUpBatch)
	if len(off) != len(on) {
		t.Fatalf("lookup counts differ: off %d on %d", len(off), len(on))
	}
	for i := range off {
		if off[i] != on[i] {
			t.Errorf("lookup %d: off %d != on %d", i, off[i], on[i])
		}
	}
	// The off arm must not have touched split machinery; the on arm must
	// actually have exercised it (parked lookups on key 0 force merges).
	if offStats != (kstm.SplitStats{}) {
		t.Errorf("split off: nonzero split stats %+v", offStats)
	}
	if onStats.Keys == 0 || onStats.MergedEpochs == 0 || onStats.ParkedTasks == 0 {
		t.Errorf("split on: split machinery unused: %+v", onStats)
	}
}
