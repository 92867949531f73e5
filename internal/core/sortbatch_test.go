package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"kstm/internal/rng"
	"kstm/internal/stm"
)

// orderRecorder captures per-worker execution order. Workers are identified
// by their STM thread (one thread per worker), which is stable for a run.
type orderRecorder struct {
	mu   sync.Mutex
	seen map[*stm.Thread][]uint64
}

func newOrderRecorder() *orderRecorder {
	return &orderRecorder{seen: map[*stm.Thread][]uint64{}}
}

func (o *orderRecorder) Execute(th *stm.Thread, t Task) (any, error) {
	runtime.Gosched() // interleave workers even on one CPU
	o.mu.Lock()
	o.seen[th] = append(o.seen[th], t.Key)
	o.mu.Unlock()
	return nil, nil
}

// meanAbsStep measures locality of an execution order: the mean absolute
// key distance between consecutive tasks. Sorted batches shrink it.
func meanAbsStep(seqs map[*stm.Thread][]uint64) float64 {
	var total float64
	var n int
	for _, seq := range seqs {
		for i := 1; i < len(seq); i++ {
			total += math.Abs(float64(seq[i]) - float64(seq[i-1]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func runOrdered(t *testing.T, sortBatch int) float64 {
	t.Helper()
	rec := newOrderRecorder()
	sched, err := NewFixed(0, 65535, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		STM:      stm.New(),
		Workload: rec,
		NewSource: func(p int) TaskSource {
			r := rng.New(uint64(p) + 1)
			return SourceFunc(func() Task {
				k := r.Uint64n(1 << 16)
				return Task{Key: k, Arg: uint32(k)}
			})
		},
		Workers:   2,
		Producers: 2,
		Model:     ModelParallel,
		Scheduler: sched,
		SortBatch: sortBatch,
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.RunCount(6000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6000 {
		t.Fatalf("completed %d", res.Completed)
	}
	return meanAbsStep(rec.seen)
}

func TestSortBatchImprovesKeyLocality(t *testing.T) {
	unsorted := runOrdered(t, 0)
	sorted := runOrdered(t, 64)
	if sorted >= unsorted {
		t.Errorf("sorted batches did not improve key locality: step %.0f vs %.0f", sorted, unsorted)
	}
}

func TestSortBatchCompletesExactly(t *testing.T) {
	// Batch draining must not lose or duplicate tasks in counted mode.
	w := newCountingWorkload()
	cfg := validConfig(w)
	cfg.SortBatch = 32
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.RunCount(5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5000 || w.total() != 5000 {
		t.Fatalf("completed=%d executed=%d", res.Completed, w.total())
	}
}
