package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kstm/internal/dist"
	"kstm/internal/rng"
	"kstm/internal/stm"
)

// countingWorkload counts executed tasks per key region via plain atomics
// (the STM path is exercised by the dictionary workload tests in harness).
type countingWorkload struct {
	mu   sync.Mutex
	seen map[uint32]int
}

func newCountingWorkload() *countingWorkload {
	return &countingWorkload{seen: map[uint32]int{}}
}

func (c *countingWorkload) Execute(th *stm.Thread, t Task) (any, error) {
	c.mu.Lock()
	c.seen[t.Arg]++
	c.mu.Unlock()
	return nil, nil
}

func (c *countingWorkload) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.seen {
		n += v
	}
	return n
}

// seqSource yields tasks with sequential keys.
func seqSource(start uint64) TaskSource {
	n := start
	return SourceFunc(func() Task {
		n++
		return Task{Key: n % 65536, Op: OpInsert, Arg: uint32(n % 65536)}
	})
}

func uniformSource(seed uint64) TaskSource {
	r := rng.New(seed)
	return SourceFunc(func() Task {
		k := r.Uint64n(1 << 16)
		return Task{Key: k, Op: OpInsert, Arg: uint32(k)}
	})
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpInsert: "insert", OpDelete: "delete", OpLookup: "lookup", OpNoop: "noop", Op(9): "Op(9)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	s := NewRoundRobin(4)
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[s.Pick(uint64(i*7))]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Errorf("worker %d got %d tasks, want 100", i, c)
		}
	}
	if s.Name() != "roundrobin" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestRoundRobinPanicsOnBadWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRoundRobin(0) did not panic")
		}
	}()
	NewRoundRobin(0)
}

func TestFixedRanges(t *testing.T) {
	s, err := NewFixed(0, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pick(0) != 0 || s.Pick(99) != 3 || s.Pick(50) != 2 {
		t.Errorf("fixed picks: %d %d %d", s.Pick(0), s.Pick(99), s.Pick(50))
	}
	if s.Name() != "fixed" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.Partition().Workers() != 4 {
		t.Error("partition workers != 4")
	}
}

func TestAdaptiveSwitchesAfterThreshold(t *testing.T) {
	a, err := NewAdaptive(0, dist.MaxKey, 4, WithThreshold(1000))
	if err != nil {
		t.Fatal(err)
	}
	src := dist.NewExponentialDefault(3)
	if a.Adapted() {
		t.Fatal("adapted before any samples")
	}
	for i := 0; i < 1100; i++ {
		key, _ := dist.Split(src.Next())
		a.Pick(uint64(key))
	}
	if !a.Adapted() {
		t.Fatal("not adapted after threshold")
	}
	if a.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", a.Epochs())
	}
	// The adaptive partition must assign the exponential distribution's
	// dense low range to multiple workers: the first boundary should be
	// far below the uniform partition's first boundary (~16384).
	bounds := a.Partition().Bounds()
	if bounds[0] > 4000 {
		t.Errorf("first adaptive boundary = %d, want << 16384 for exponential keys", bounds[0])
	}
}

func TestAdaptiveOnceByDefault(t *testing.T) {
	a, err := NewAdaptive(0, 65535, 2, WithThreshold(100))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		a.Pick(r.Uint64n(65536))
	}
	if got := a.Epochs(); got != 1 {
		t.Fatalf("epochs = %d, want exactly 1 without re-adaptation", got)
	}
}

func TestAdaptiveReAdaptation(t *testing.T) {
	a, err := NewAdaptive(0, 65535, 4, WithThreshold(500), WithReAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	// First window: keys concentrated low. Second: concentrated high.
	for i := 0; i < 600; i++ {
		a.Pick(uint64(i % 1000))
	}
	if !a.Adapted() {
		t.Fatal("no adaptation after first window")
	}
	firstBounds := a.Partition().Bounds()
	for i := 0; i < 600; i++ {
		a.Pick(uint64(64000 + i%1000))
	}
	if a.Epochs() < 2 {
		t.Fatalf("epochs = %d, want >= 2 with re-adaptation", a.Epochs())
	}
	secondBounds := a.Partition().Bounds()
	if firstBounds[0] >= secondBounds[0] {
		t.Errorf("partition did not follow the drift: %v -> %v", firstBounds, secondBounds)
	}
}

func TestAdaptiveConcurrentPick(t *testing.T) {
	a, err := NewAdaptive(0, 65535, 8, WithThreshold(2000))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 5000; i++ {
				w := a.Pick(r.Uint64n(65536))
				if w < 0 || w >= 8 {
					t.Errorf("Pick out of range: %d", w)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if !a.Adapted() {
		t.Error("not adapted after concurrent sampling")
	}
}

func TestNewScheduler(t *testing.T) {
	for _, k := range SchedulerKinds() {
		s, err := NewScheduler(k, 0, 65535, 4)
		if err != nil {
			t.Fatalf("NewScheduler(%q): %v", k, err)
		}
		if s.Name() != string(k) {
			t.Errorf("Name = %q, want %q", s.Name(), k)
		}
	}
	if _, err := NewScheduler("lifo", 0, 9, 2); err == nil {
		t.Error("NewScheduler(lifo) succeeded")
	}
	if _, err := NewScheduler(SchedRoundRobin, 0, 9, 0); err == nil {
		t.Error("roundrobin with 0 workers succeeded")
	}
	if _, err := NewScheduler(SchedFixed, 9, 0, 2); err == nil {
		t.Error("fixed with inverted range succeeded")
	}
}

func validConfig(w *countingWorkload) Config {
	sched, _ := NewFixed(0, 65535, 3)
	return Config{
		STM:       stm.New(),
		Workload:  w,
		NewSource: func(p int) TaskSource { return uniformSource(uint64(p + 1)) },
		Workers:   3,
		Producers: 2,
		Model:     ModelParallel,
		Scheduler: sched,
	}
}

func TestNewPoolValidation(t *testing.T) {
	w := newCountingWorkload()
	base := validConfig(w)
	if _, err := NewPool(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := map[string]func(c *Config){
		"nil STM":        func(c *Config) { c.STM = nil },
		"nil workload":   func(c *Config) { c.Workload = nil },
		"nil source":     func(c *Config) { c.NewSource = nil },
		"zero workers":   func(c *Config) { c.Workers = 0 },
		"no producers":   func(c *Config) { c.Producers = 0 },
		"nil scheduler":  func(c *Config) { c.Scheduler = nil },
		"bad model":      func(c *Config) { c.Model = "quantum" },
		"negative depth": func(c *Config) { c.MaxQueueDepth = -1 },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if _, err := NewPool(c); err == nil {
			t.Errorf("%s: NewPool succeeded", name)
		}
	}
}

func TestRunCountCompletesExactly(t *testing.T) {
	for _, model := range Models() {
		model := model
		t.Run(string(model), func(t *testing.T) {
			w := newCountingWorkload()
			cfg := validConfig(w)
			cfg.Model = model
			pool, err := NewPool(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 2000
			res, err := pool.RunCount(n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != n {
				t.Fatalf("Completed = %d, want %d", res.Completed, n)
			}
			if w.total() != n {
				t.Fatalf("workload executed %d, want %d", w.total(), n)
			}
			var sum uint64
			for _, pw := range res.PerWorker {
				sum += pw
			}
			if sum != n {
				t.Fatalf("per-worker sum = %d, want %d", sum, n)
			}
			if res.Throughput() <= 0 {
				t.Error("non-positive throughput")
			}
		})
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	pool, err := NewPool(validConfig(newCountingWorkload()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RunCount(0); err == nil {
		t.Error("RunCount(0) succeeded")
	}
}

// TestWorkloadErrorPropagates: a fatal workload error ends the run with
// that error. The last-task case stops the engine once the producers are
// done and the run's Drain is starting or under way, so Drain returns
// ErrNotRunning (or the error) and Stop settles what is left; the run must
// return, not hang.
func TestWorkloadErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	for _, tc := range []struct {
		name   string
		tasks  int
		failAt int // the first failing execution; later ones fail too
	}{
		{"after-10", 100000, 11},
		{"last-task", 1000, 1000},
	} {
		for _, model := range Models() {
			t.Run(tc.name+"/"+string(model), func(t *testing.T) {
				cfg := validConfig(newCountingWorkload())
				n := 0
				cfg.Workload = WorkloadFunc(func(th *stm.Thread, t Task) (any, error) {
					n++
					if n >= tc.failAt {
						return nil, sentinel
					}
					return nil, nil
				})
				cfg.Model = model
				cfg.Workers = 1
				pool, err := NewPool(cfg)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					_, err := pool.RunCount(tc.tasks)
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, sentinel) {
						t.Fatalf("err = %v, want sentinel", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("RunCount still running 10s after its failing task")
				}
			})
		}
	}
}

func TestFixedSchedulerRoutesByRange(t *testing.T) {
	// With a fixed scheduler, each worker must see only keys from its
	// range.
	var mu sync.Mutex
	perWorkerKeys := map[int][]uint64{}
	var widx atomic2 // worker identity via goroutine-local trick is not possible; instead check routing directly.
	_ = widx
	sched, err := NewFixed(0, 65535, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Direct check: Pick honors partition ranges on 100k random keys.
	r := rng.New(5)
	for i := 0; i < 100000; i++ {
		k := r.Uint64n(65536)
		w := sched.Pick(k)
		lo, hi := sched.Partition().RangeOf(w)
		if k < lo || k > hi {
			t.Fatalf("key %d routed to worker %d range [%d,%d]", k, w, lo, hi)
		}
		mu.Lock()
		perWorkerKeys[w] = append(perWorkerKeys[w], k)
		mu.Unlock()
	}
	if len(perWorkerKeys) != 4 {
		t.Fatalf("only %d workers used", len(perWorkerKeys))
	}
}

type atomic2 struct{}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{
		Completed: 100,
		Elapsed:   time.Second,
		PerWorker: []uint64{50, 25, 25, 0},
	}
	if got := r.Throughput(); got != 100 {
		t.Errorf("Throughput = %v", got)
	}
	if got := r.LoadImbalance(); got != 2 {
		t.Errorf("LoadImbalance = %v, want 2", got)
	}
	if (Result{}).Throughput() != 0 {
		t.Error("zero result throughput != 0")
	}
	if (Result{}).LoadImbalance() != 1 {
		t.Error("zero result imbalance != 1")
	}
	if s := r.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestSourceFuncAndWorkloadFunc(t *testing.T) {
	src := SourceFunc(func() Task { return Task{Key: 7} })
	if src.Next().Key != 7 {
		t.Error("SourceFunc passthrough broken")
	}
	wf := WorkloadFunc(func(th *stm.Thread, t Task) (any, error) { return t.Key, nil })
	if v, err := wf.Execute(nil, Task{Key: 7}); err != nil || v != uint64(7) {
		t.Errorf("WorkloadFunc passthrough = (%v, %v)", v, err)
	}
}

func TestAdaptiveBalancesExponentialLoad(t *testing.T) {
	// End-to-end scheduler comparison on load balance: route an
	// exponential key stream through fixed and adaptive schedulers and
	// compare per-worker shares. This is the §4.4 load-balance mechanism
	// in isolation (no STM, no timing).
	const workers = 8
	const warmup = 12000 // past the 10,000-sample threshold
	const tasks = 50000
	count := func(s Scheduler) []int {
		src := dist.NewExponentialDefault(42)
		// Warm-up: the adaptive scheduler dispatches via the fixed
		// partition while sampling; measure steady-state balance only.
		for i := 0; i < warmup; i++ {
			key, _ := dist.Split(src.Next())
			s.Pick(uint64(key))
		}
		loads := make([]int, workers)
		for i := 0; i < tasks; i++ {
			key, _ := dist.Split(src.Next())
			loads[s.Pick(uint64(key))]++
		}
		return loads
	}
	fixed, err := NewFixed(0, dist.MaxKey, workers)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewAdaptive(0, dist.MaxKey, workers)
	if err != nil {
		t.Fatal(err)
	}
	fixedLoads := count(fixed)
	adaptiveLoads := count(adaptive)

	imbalance := func(loads []int) float64 {
		max := 0
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		return float64(max) * workers / tasks
	}
	fi, ai := imbalance(fixedLoads), imbalance(adaptiveLoads)
	if fi < 6 {
		t.Errorf("fixed imbalance = %.2f, expected ~%d under exponential keys", fi, workers)
	}
	if ai > 2 {
		t.Errorf("adaptive imbalance = %.2f, want < 2", ai)
	}
	t.Logf("fixed loads: %v (imb %.2f)", fixedLoads, fi)
	t.Logf("adaptive loads: %v (imb %.2f)", adaptiveLoads, ai)
}

func TestSeqSourceHelper(t *testing.T) {
	s := seqSource(0)
	a, b := s.Next(), s.Next()
	if a.Key == b.Key {
		t.Error("seqSource not advancing")
	}
}

func BenchmarkSchedulerPick(b *testing.B) {
	for _, kind := range SchedulerKinds() {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			s, err := NewScheduler(kind, 0, 65535, 16)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Pick(r.Uint64n(65536))
			}
		})
	}
}

func ExampleRoundRobin() {
	s := NewRoundRobin(2)
	fmt.Println(s.Pick(100), s.Pick(100), s.Pick(100))
	// Output: 0 1 0
}
