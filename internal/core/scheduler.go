package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"kstm/internal/hist"
)

// Scheduler maps a transaction key to a worker index. Pick must be safe for
// concurrent use: under the parallel-executor model every producer
// dispatches through the same scheduler instance.
type Scheduler interface {
	// Pick returns the worker (queue) index for a transaction key.
	Pick(key uint64) int
	// Name identifies the policy in reports.
	Name() string
}

// SchedulerKind names a dispatch policy.
type SchedulerKind string

// The paper's three policies (§3.2).
const (
	SchedRoundRobin SchedulerKind = "roundrobin"
	SchedFixed      SchedulerKind = "fixed"
	SchedAdaptive   SchedulerKind = "adaptive"
)

// SchedulerKinds lists the policies in the paper's presentation order.
func SchedulerKinds() []SchedulerKind {
	return []SchedulerKind{SchedRoundRobin, SchedFixed, SchedAdaptive}
}

// RoundRobin dispatches tasks to workers in cyclic order, ignoring keys —
// the paper's baseline. Load balance is perfect; locality is none.
type RoundRobin struct {
	workers int
	next    atomic.Uint64
}

// NewRoundRobin returns a round-robin scheduler over the given worker
// count. It panics if workers <= 0 (a configuration bug).
func NewRoundRobin(workers int) *RoundRobin {
	if workers <= 0 {
		panic("core: NewRoundRobin with non-positive workers")
	}
	return &RoundRobin{workers: workers}
}

// Pick implements Scheduler.
func (r *RoundRobin) Pick(uint64) int {
	return int((r.next.Add(1) - 1) % uint64(r.workers))
}

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return string(SchedRoundRobin) }

// Fixed divides the key space into equal-width ranges, one per worker.
// Locality is good, but load balances only if keys are uniform.
type Fixed struct {
	part *hist.Partition
}

// NewFixed returns a fixed scheduler over the closed key range [min, max].
func NewFixed(min, max uint64, workers int) (*Fixed, error) {
	p, err := hist.UniformPartition(min, max, workers)
	if err != nil {
		return nil, err
	}
	return &Fixed{part: p}, nil
}

// Pick implements Scheduler.
func (f *Fixed) Pick(key uint64) int { return f.part.Pick(key) }

// Name implements Scheduler.
func (f *Fixed) Name() string { return string(SchedFixed) }

// Partition exposes the ranges (for reports).
func (f *Fixed) Partition() *hist.Partition { return f.part }

// Adaptive is the paper's contribution: it dispatches via a fixed partition
// while sampling incoming keys into a histogram; once the sample count
// passes the confidence threshold it computes a PD-partition — ranges of
// equal estimated probability mass — and atomically switches to it (§3.2).
//
// With re-adaptation enabled (an extension; the paper adapts once), the
// scheduler keeps sampling in windows and refreshes the partition after
// each, tracking drifting workloads.
type Adaptive struct {
	min, max  uint64
	workers   int
	threshold uint64
	readapt   bool

	h       *hist.Histogram
	current atomic.Pointer[hist.Partition]
	adapted atomic.Bool
	adaptMu sync.Mutex // serializes partition rebuilds; also guards gate
	epochs  atomic.Uint64
	// gate, when set, is consulted before every partition swap: it may fence
	// the moved ranges and returns a commit hook to run after the swap, or
	// ok=false to skip this re-partition entirely (e.g. a shard-state
	// migration is still in flight). Installed by the executor's migrator.
	gate func(old, new *hist.Partition) (commit func(), ok bool)
}

// setRepartitionGate installs the pre-swap hook (see gate above). It must be
// installed before dispatch traffic starts; the executor calls it from
// NewExecutor.
func (a *Adaptive) setRepartitionGate(fn func(old, new *hist.Partition) (func(), bool)) {
	a.adaptMu.Lock()
	a.gate = fn
	a.adaptMu.Unlock()
}

// AdaptiveOption configures the adaptive scheduler.
type AdaptiveOption func(*Adaptive)

// WithThreshold sets the number of samples required before adapting. The
// default is hist.DefaultSampleThreshold (10,000), the paper's value giving
// 95% confidence of a 99%-accurate CDF.
func WithThreshold(n int) AdaptiveOption {
	return func(a *Adaptive) {
		if n > 0 {
			a.threshold = uint64(n)
		}
	}
}

// WithReAdaptation makes the scheduler re-estimate the distribution every
// threshold samples instead of adapting exactly once.
func WithReAdaptation() AdaptiveOption {
	return func(a *Adaptive) { a.readapt = true }
}

// defaultCells balances CDF resolution against rebuild cost; 256 cells over
// the 16-bit space give 256-key resolution, enough to place boundaries
// accurately even when a skewed distribution packs most of its mass into a
// few percent of the range.
const defaultCells = 256

// NewAdaptive returns an adaptive scheduler over [min, max].
func NewAdaptive(min, max uint64, workers int, opts ...AdaptiveOption) (*Adaptive, error) {
	a := &Adaptive{
		min:       min,
		max:       max,
		workers:   workers,
		threshold: hist.DefaultSampleThreshold,
	}
	for _, o := range opts {
		o(a)
	}
	initial, err := hist.UniformPartition(min, max, workers)
	if err != nil {
		return nil, err
	}
	a.current.Store(initial)
	a.h = hist.NewHistogram(min, max, defaultCells)
	return a, nil
}

// Pick implements Scheduler. On the sampling path it records the key and,
// at the threshold, triggers (re)partitioning.
func (a *Adaptive) Pick(key uint64) int {
	if !a.adapted.Load() || a.readapt {
		a.h.Add(key)
		if a.h.Total() >= a.threshold {
			a.maybeAdapt()
		}
	}
	return a.current.Load().Pick(key)
}

// maybeAdapt rebuilds the partition from the current histogram. Exactly one
// caller wins; the rest return immediately and keep dispatching on the old
// partition (dispatch never blocks on adaptation).
func (a *Adaptive) maybeAdapt() {
	if !a.adaptMu.TryLock() {
		return
	}
	defer a.adaptMu.Unlock()
	if a.h.Total() < a.threshold {
		return // another adapter already consumed this window
	}
	cdf, err := hist.NewCDF(a.h)
	if err != nil {
		return // no samples — cannot happen past the threshold check
	}
	part, err := hist.PDPartition(cdf, a.workers)
	if err != nil {
		return
	}
	commit := func() {}
	if a.gate != nil {
		c, ok := a.gate(a.current.Load(), part)
		if !ok {
			// The gate declined (a migration is still in flight). Drop
			// this window's estimate and sample a fresh one, so Pick does
			// not rebuild the CDF on every call until the gate reopens.
			a.h.Reset()
			return
		}
		if c != nil {
			commit = c
		}
	}
	a.current.Store(part)
	a.adapted.Store(true)
	a.epochs.Add(1)
	if a.readapt {
		a.h.Reset()
	}
	commit()
}

// Repick returns the worker for key on the current partition WITHOUT
// sampling the key into the histogram. Dispatch retry loops (backpressure
// waits) use it so a submitter blocked for many backoff ticks contributes
// one sample per task, not one per tick — otherwise a saturated queue's
// keys would dominate the learned distribution.
func (a *Adaptive) Repick(key uint64) int { return a.current.Load().Pick(key) }

// Name implements Scheduler.
func (a *Adaptive) Name() string { return string(SchedAdaptive) }

// Adapted reports whether the scheduler has switched to a PD-partition.
func (a *Adaptive) Adapted() bool { return a.adapted.Load() }

// Epochs returns how many times the partition has been rebuilt.
func (a *Adaptive) Epochs() uint64 { return a.epochs.Load() }

// Partition returns the partition currently in force.
func (a *Adaptive) Partition() *hist.Partition { return a.current.Load() }

// NewScheduler constructs a scheduler by kind over [min, max] for the given
// worker count. Adaptive options apply only to SchedAdaptive.
func NewScheduler(kind SchedulerKind, min, max uint64, workers int, opts ...AdaptiveOption) (Scheduler, error) {
	switch kind {
	case SchedRoundRobin:
		if workers <= 0 {
			return nil, fmt.Errorf("core: %d workers", workers)
		}
		return NewRoundRobin(workers), nil
	case SchedFixed:
		return NewFixed(min, max, workers)
	case SchedAdaptive:
		return NewAdaptive(min, max, workers, opts...)
	default:
		return nil, fmt.Errorf("core: unknown scheduler %q (want roundrobin, fixed or adaptive)", kind)
	}
}
