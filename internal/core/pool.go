package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kstm/internal/queue"
	"kstm/internal/stm"
)

// Model selects the executor architecture of Figure 1.
type Model string

// The two executor models the paper measures. Figure 1b's centralized
// executor thread is drawn in the paper but never measured; it is not built
// (DESIGN.md §2).
const (
	// ModelNoExecutor: each thread generates and synchronously executes
	// its own transactions (Figure 1a) — Figure 4's baseline. No queuing
	// overhead; no load balancing; parallelism limited to the worker count.
	ModelNoExecutor Model = "noexecutor"
	// ModelParallel: the executor runs inline in every producer thread
	// (Figure 1c) — the model used for all the paper's measurements.
	ModelParallel Model = "parallel"
)

// Models lists the executor models.
func Models() []Model { return []Model{ModelNoExecutor, ModelParallel} }

// defaultMaxQueueDepth bounds per-worker queues so that producers running
// ahead of the workers cannot consume unbounded memory; producers block at
// the bound. The paper's Java runs relied on producers and workers being
// roughly matched.
const defaultMaxQueueDepth = 8192

// Config describes one executor experiment.
type Config struct {
	// STM is the transactional memory instance shared by the workers.
	STM *stm.STM
	// Workload executes tasks on worker threads.
	Workload Workload
	// NewSource returns producer p's private task stream.
	NewSource func(producer int) TaskSource
	// Workers is the worker-thread count (w in the paper).
	Workers int
	// Producers is the producer-thread count (the paper uses 4, or 8 for
	// the hash table "to prevent worker threads being hungry").
	Producers int
	// Model selects the executor architecture; default ModelParallel.
	Model Model
	// Scheduler maps keys to workers. Required unless Model is
	// ModelNoExecutor.
	Scheduler Scheduler
	// QueueKind selects the task-queue implementation; default mscq.
	QueueKind queue.Kind
	// MaxQueueDepth applies producer backpressure; <0 disables, 0 means
	// the default.
	MaxQueueDepth int
	// WorkSteal lets an idle worker take tasks from other queues — the
	// §2 "load balancing" alternative; off in the paper's experiments.
	WorkSteal bool
	// SortBatch > 1 makes each worker drain up to that many tasks and
	// execute them in ascending key order (§2's buffer-reordering
	// capability). Batching by key improves temporal locality within a
	// worker at the cost of latency.
	SortBatch int
}

// Pool is the closed-world driver the paper's figures run: producers
// synthesize tasks internally and RunCount reports aggregate throughput. It
// is a thin wrapper over the open Executor engine — each run builds a fresh
// Executor, feeds it from the configured producers, and reports a Result.
// New code that has its own callers should use NewExecutor and Submit
// directly.
type Pool struct {
	cfg      Config
	maxDepth int
}

// NewPool validates the configuration.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.STM == nil {
		return nil, fmt.Errorf("core: Config.STM is required")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("core: Config.Workload is required")
	}
	if cfg.NewSource == nil {
		return nil, fmt.Errorf("core: Config.NewSource is required")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: Config.Workers = %d, want > 0", cfg.Workers)
	}
	if cfg.Model == "" {
		cfg.Model = ModelParallel
	}
	switch cfg.Model {
	case ModelNoExecutor:
		// Scheduler and producers are unused; workers self-produce.
	case ModelParallel:
		if cfg.Producers <= 0 {
			return nil, fmt.Errorf("core: Config.Producers = %d, want > 0", cfg.Producers)
		}
		if cfg.Scheduler == nil {
			return nil, fmt.Errorf("core: Config.Scheduler is required for model %q", cfg.Model)
		}
	default:
		return nil, fmt.Errorf("core: unknown model %q", cfg.Model)
	}
	if cfg.QueueKind == "" {
		cfg.QueueKind = queue.KindMSCQ
	}
	maxDepth := cfg.MaxQueueDepth
	switch {
	case maxDepth < 0:
		maxDepth = 0
	case maxDepth == 0:
		maxDepth = defaultMaxQueueDepth
	}
	return &Pool{cfg: cfg, maxDepth: maxDepth}, nil
}

// RunCount executes exactly n tasks and reports the elapsed time: start
// producers and workers, stop the instant the n-th task completes, report.
func (p *Pool) RunCount(n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("core: non-positive task count %d", n)
	}
	if p.cfg.Model == ModelNoExecutor {
		return p.runNoExecutor(int64(n))
	}
	return p.runParallel(int64(n))
}

// quota is a run's production budget: producers claim one task at a time
// until it is exhausted.
type quota struct{ remaining atomic.Int64 }

// claim reserves one task to produce; it returns false when the budget is
// exhausted.
func (q *quota) claim() bool { return q.remaining.Add(-1) >= 0 }

func (p *Pool) runParallel(count int64) (Result, error) {
	depth := p.maxDepth
	if depth == 0 {
		depth = -1 // Pool semantics: 0 means "bound disabled" post-validation.
	}
	ex, err := NewExecutor(
		WithSTM(p.cfg.STM),
		WithWorkload(p.cfg.Workload),
		WithWorkers(p.cfg.Workers),
		WithScheduler(p.cfg.Scheduler),
		WithQueue(p.cfg.QueueKind),
		WithQueueDepth(depth),
		WithWorkSteal(p.cfg.WorkSteal),
		WithSortBatch(p.cfg.SortBatch),
	)
	if err != nil {
		return Result{}, err
	}

	q := &quota{}
	q.remaining.Store(count)
	// Stop the engine the instant the last task completes so that
	// RunCount's elapsed time measures exactly n tasks.
	var done atomic.Int64
	done.Store(count)
	ex.onDone = func() {
		if done.Add(-1) == 0 {
			ex.markStopped()
		}
	}

	start := time.Now()
	if err := ex.Start(nil); err != nil {
		return Result{}, err
	}
	var producers sync.WaitGroup
	for i := 0; i < p.cfg.Producers; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			p.parallelProducer(ex, q, i)
		}(i)
	}

	// Producers exhaust the budget; completion of the last task (or the
	// first fatal error) flips the engine to stopped. Block on the signal
	// instead of spinning — a busy-wait here would steal a core from the
	// very run being measured.
	<-ex.Stopped()
	ex.halt()
	producers.Wait()
	elapsed := time.Since(start)

	return p.buildResult(ex, elapsed), ex.Err()
}

// buildResult converts engine counters into the Result shape. The
// Pool always builds shared-mode executors, so shard 0 holds the run's STM
// baseline.
func (p *Pool) buildResult(ex *Executor, elapsed time.Duration) Result {
	perWorker := make([]uint64, len(ex.wstats))
	var empty, steals uint64
	for i := range ex.wstats {
		perWorker[i] = ex.wstats[i].completed.Load()
		empty += ex.wstats[i].empty.Load()
		steals += ex.wstats[i].steals.Load()
	}
	return p.newResult(elapsed, ex.submitted.Load(), empty, steals,
		perWorker, p.cfg.STM.Stats().Sub(ex.shards[0].before))
}

// newResult assembles a Result from run counters; every model funnels
// through it so a new field cannot silently stay zero for one model.
func (p *Pool) newResult(elapsed time.Duration, produced, emptyPolls, steals uint64,
	perWorker []uint64, stmDelta stm.StatsSnapshot) Result {
	res := Result{
		Model:      p.cfg.Model,
		Workers:    p.cfg.Workers,
		Producers:  p.cfg.Producers,
		QueueKind:  p.cfg.QueueKind,
		WorkSteal:  p.cfg.WorkSteal,
		Elapsed:    elapsed,
		Produced:   produced,
		PerWorker:  perWorker,
		EmptyPolls: emptyPolls,
		Steals:     steals,
		STM:        stmDelta,
	}
	if p.cfg.Scheduler != nil {
		res.Scheduler = p.cfg.Scheduler.Name()
	} else {
		res.Scheduler = "none"
	}
	for _, n := range perWorker {
		res.Completed += n
	}
	return res
}

// parallelProducer is Figure 1c: the producer dispatches inline into the
// engine's worker queues.
func (p *Pool) parallelProducer(ex *Executor, q *quota, i int) {
	src := p.cfg.NewSource(i)
	for !ex.stopping() {
		if !q.claim() {
			return
		}
		if !ex.inject(src.Next()) {
			return
		}
	}
}

// runNoExecutor is Figure 1a: each worker generates and synchronously
// executes its own transactions — no queues, no dispatch, no engine. The
// run ends when the quota is exhausted; every claimed task completes before
// its worker claims the next.
func (p *Pool) runNoExecutor(count int64) (Result, error) {
	q := &quota{}
	q.remaining.Store(count)
	var stop atomic.Bool // set by the first workload error
	var produced atomic.Uint64
	var workErr atomic.Pointer[error]
	completed := make([]paddedCounter, p.cfg.Workers)

	stmBefore := p.cfg.STM.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := p.cfg.NewSource(i)
			th := p.cfg.STM.NewThread()
			for !stop.Load() {
				if !q.claim() {
					return
				}
				t := src.Next()
				produced.Add(1)
				if _, err := p.cfg.Workload.Execute(th, t); err != nil {
					e := err
					if workErr.CompareAndSwap(nil, &e) {
						stop.Store(true)
					}
					return
				}
				completed[i].n.Add(1)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	perWorker := make([]uint64, len(completed))
	for i := range completed {
		perWorker[i] = completed[i].n.Load()
	}
	res := p.newResult(elapsed, produced.Load(), 0, 0, perWorker, p.cfg.STM.Stats().Sub(stmBefore))
	if errp := workErr.Load(); errp != nil {
		return res, *errp
	}
	return res, nil
}

// paddedCounter avoids false sharing between per-worker counters, which
// would otherwise serialize the very cache traffic the executor exists to
// remove.
//
//kstmvet:padalign
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}
