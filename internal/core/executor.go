package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kstm/internal/dist"
	"kstm/internal/latency"
	"kstm/internal/queue"
	"kstm/internal/splitphase"
	"kstm/internal/stm"
)

// Executor lifecycle and submission errors.
var (
	// ErrQueueFull is returned by Submit under BackpressureReject when the
	// target worker's queue is at its depth bound.
	ErrQueueFull = errors.New("core: worker queue full")
	// ErrNotRunning is returned when submitting to an executor that has
	// not been started, is draining, or has stopped.
	ErrNotRunning = errors.New("core: executor not running")
	// ErrAlreadyStarted is returned by Start on a started executor.
	ErrAlreadyStarted = errors.New("core: executor already started")
	// ErrStopped is the completion error of tasks abandoned by Stop (or by
	// cancellation of the Start context) before a worker executed them.
	ErrStopped = errors.New("core: executor stopped before task executed")
	// ErrDeadlineExpired is the completion error of tasks shed because their
	// submission deadline (SubmitFuncTimed) expired while they sat queued —
	// the worker dequeued them after the deadline and settled without
	// executing. Counted under ExecStats.DeadlineExpired, never Completed.
	ErrDeadlineExpired = errors.New("core: task deadline expired in queue")
)

// backgroundCtx is the shared fallback for nil submission contexts, hoisted
// to package scope so the fallback costs a pointer copy on the submission
// path instead of an escaping context.Background() call per task.
var backgroundCtx = context.Background()

// Backpressure selects what Submit does when the target worker's queue is
// at its depth bound.
type Backpressure string

// Backpressure modes.
const (
	// BackpressureBlock: the submitter waits for space (or for its context
	// to be cancelled). This is the default, matching the closed-world
	// producers, and is the right mode for batch callers.
	BackpressureBlock Backpressure = "block"
	// BackpressureReject: Submit returns ErrQueueFull immediately, pushing
	// the flow-control decision to the caller — the right mode for servers
	// that would rather shed load than stall request goroutines.
	BackpressureReject Backpressure = "reject"
)

// Executor lifecycle states.
type execState = int32

const (
	stateNew execState = iota
	stateRunning
	stateDraining
	stateStopped
)

func stateName(s execState) string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateDraining:
		return "draining"
	default:
		return "stopped"
	}
}

// ShardMode selects how executor state is partitioned across workers.
type ShardMode string

// Sharding modes.
const (
	// ShardShared: every worker executes in one STM instance against one
	// workload — the paper's configuration. Key-based dispatch still cuts
	// conflicts, but the single STM's shared counters and object graph
	// are the scaling ceiling.
	ShardShared ShardMode = "shared"
	// ShardPerWorker: each worker owns a private STM instance and a
	// shard-local workload built by the WorkloadFactory. Since the
	// dispatch policy already routes a key range to exactly one worker,
	// the per-worker shard receives exactly that range's data; cross-
	// worker STM conflicts become impossible by construction.
	ShardPerWorker ShardMode = "perworker"
)

// TaskResult reports one completed task back to its submitter.
type TaskResult struct {
	// Task echoes the submitted record.
	Task Task
	// Worker is the index of the worker that finished (or abandoned) it.
	Worker int
	// Value is the workload's result for the task (e.g. a lookup's hit),
	// nil for value-less workloads and for tasks that never executed.
	Value any
	// Err is the workload's hard error, the submission context's error if
	// it was cancelled before execution, or ErrStopped.
	Err error
	// Wait is the time the task spent queued before execution.
	Wait time.Duration
	// Exec is the workload execution time (retries included).
	Exec time.Duration
}

// execConfig is the resolved option set of an Executor.
type execConfig struct {
	stm          *stm.STM
	workload     Workload
	factory      WorkloadFactory
	sharding     ShardMode
	workers      int
	scheduler    Scheduler
	schedKind    SchedulerKind
	schedMin     uint64
	schedMax     uint64
	adaptOpts    []AdaptiveOption
	maxDepth     int
	backpressure Backpressure
	sortBatch    int
	migration    MigrationMode
	split        *splitConfig
}

// Option configures an Executor.
type Option func(*execConfig)

// WithSTM sets the transactional-memory instance workers execute in; the
// default is a fresh stm.New().
func WithSTM(s *stm.STM) Option { return func(c *execConfig) { c.stm = s } }

// WithWorkload sets how workers execute task records. Required unless
// WithWorkloadFactory is given.
func WithWorkload(w Workload) Option { return func(c *execConfig) { c.workload = w } }

// WithWorkloadFactory sets the shard-local workload builder. Required for
// ShardPerWorker (each worker executes NewShard(worker)); under ShardShared
// it is called once, NewShard(0), for all workers. A factory that also
// implements ShardSizer is told the worker count under ShardPerWorker before
// its first shard is built. Mutually exclusive with WithWorkload.
func WithWorkloadFactory(f WorkloadFactory) Option {
	return func(c *execConfig) { c.factory = f }
}

// WithSharding selects the state-partitioning mode (default ShardShared).
// ShardPerWorker requires WithWorkloadFactory and is incompatible with
// WithSTM: every worker builds a private STM instance, so transactional
// state never crosses worker boundaries. The learned adaptive partition
// still moves key ranges between workers; moved ranges see their shard-
// local state, not the old worker's (see DESIGN.md "Sharding").
func WithSharding(m ShardMode) Option { return func(c *execConfig) { c.sharding = m } }

// WithWorkers sets the worker-thread count; the default is GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *execConfig) { c.workers = n } }

// WithScheduler installs a prebuilt dispatch policy (it must be sized for
// the executor's worker count).
func WithScheduler(s Scheduler) Option { return func(c *execConfig) { c.scheduler = s } }

// WithSchedulerKind builds the dispatch policy by kind over the closed key
// range [min, max]; adaptive options apply only to SchedAdaptive. The
// default policy is SchedAdaptive over the 16-bit key space, so the
// executor samples live traffic and re-partitions by probability mass.
func WithSchedulerKind(kind SchedulerKind, min, max uint64, opts ...AdaptiveOption) Option {
	return func(c *execConfig) {
		c.schedKind = kind
		c.schedMin, c.schedMax = min, max
		c.adaptOpts = opts
	}
}

// WithQueueDepth bounds per-worker queues at n tasks: each worker's queue is
// a ring of exactly n preallocated slots. 0 keeps the default (512); n < 0 is
// rejected by NewExecutor (a ring cannot be unbounded).
func WithQueueDepth(n int) Option { return func(c *execConfig) { c.maxDepth = n } }

// WithBackpressure selects the full-queue policy (default BackpressureBlock).
func WithBackpressure(m Backpressure) Option { return func(c *execConfig) { c.backpressure = m } }

// WithSortBatch makes each worker drain up to n tasks and execute them in
// ascending key order (§2's buffer-reordering capability); n <= 1 is FIFO.
func WithSortBatch(n int) Option { return func(c *execConfig) { c.sortBatch = n } }

// Executor is the open form of the paper's key-based executor: callers
// submit transaction parameter records and receive per-task results, while
// the configured dispatch policy routes each record to a worker by its
// transaction key. Lifecycle:
//
//	ex, _ := NewExecutor(WithWorkload(w), WithWorkers(8))
//	ex.Start(ctx)
//	res, err := ex.Submit(ctx, Task{Key: k, Op: OpInsert, Arg: a})
//	...
//	ex.Drain() // or ex.Stop()
//
// All methods are safe for concurrent use.
type Executor struct {
	cfg execConfig
	// queues holds one bounded ring per worker: many producers, one
	// consumer (its owner), capacity = the depth bound.
	queues []*queue.Ring[envelope]
	// shards holds the executor's transactional state partitions: one
	// entry under ShardShared, one per worker under ShardPerWorker.
	// Worker i executes in shards[shardOf(i)].
	shards []shardState
	// migr runs the epoch-fenced shard-state hand-off; nil unless
	// MigrateOnRepartition is configured.
	migr *migrator
	// split runs split-phase execution for contended keys (detector, local
	// accumulators, epoch-merge coordinator); nil unless WithSplitPhase is
	// configured. Mutually exclusive with migr.
	split *splitRunner
	// epoch is the configured subsystem's epoch skeleton (epoch.go) — the
	// gate dispatch reads under; nil when neither is configured, which keeps
	// the plain dispatch path lock-free.
	epoch *epoch

	state    atomic.Int32
	inflight atomic.Int64 // accepted-but-not-finished tasks (incl. blocked submitters)
	workers  sync.WaitGroup
	stopped  chan struct{} // closed once on the transition to the stopped state
	stopOnce sync.Once
	shutdown chan struct{} // closed once on halt, releases the context watcher
	haltOnce sync.Once

	// wakes holds the per-worker park/wake state (wake.go); parked counts
	// workers currently marked idleParked, gating the enqueue-side wake to
	// one atomic load when the executor is busy; drainWake carries the
	// in-flight-reached-zero event to a blocked Drain.
	wakes     []workerWake
	parked    atomic.Int32
	drainWake chan struct{}

	startMu   sync.Mutex // guards started/stoppedAt/shard baselines against concurrent Stats
	started   time.Time
	stoppedAt time.Time
	// base is the executor's monotonic epoch, fixed at construction: enq
	// stamps and service clocks are durations since it, so an envelope
	// carries 8 bytes of timestamp instead of 24.
	base time.Time

	submitted atomic.Uint64
	rejected  atomic.Uint64
	// wstats holds the worker-side counters, one cache-line-padded block per
	// worker so the hot completion path never bounces a shared line between
	// cores; Stats folds them into totals on demand.
	wstats []workerCounters
	// waitHist/execHist record queue-wait and service time per worker for
	// result-carrying submissions; merged into ExecStats percentiles.
	waitHist []*latency.Histogram
	execHist []*latency.Histogram
	firstErr atomic.Pointer[error]

	// onDone, if set before Start, runs after every task completion; the
	// legacy counted-run harness uses it to stop at an exact task quota.
	onDone func()
	// borrowOK, fixed at Start, reports whether SubmitFuncOrRun may borrow
	// a parked owner at all: no epoch gate, no SortBatch and no onDone
	// hook.
	borrowOK bool
}

// envelope carries a task through a worker queue together with its
// completion plumbing. Fire-and-forget tasks (legacy producers) have a nil
// fut and ctx and skip all timestamping. Result-carrying tasks settle
// through fut — a waiter shell (Submit/SubmitAsync/SubmitAll) or a callback
// shell (SubmitFunc). A barrier envelope (non-nil barrier, everything else
// zero) carries no task at all: it marks a drain point in the queue for the
// migrator — the worker (or halt's sweep) runs the hook once every envelope
// enqueued before it has been executed.
//
// The struct is deliberately lean (56 bytes): every enqueue copies it into a
// preallocated ring slot, and with the slot's 8-byte sequence that is one
// 64-byte cache line per queued task (TestRingSlotIsOneCacheLine) — which is
// why enq is a monotonic duration since the executor's base instant (8
// bytes) rather than a time.Time (24), and why SubmitFunc's callback rides in
// the Future shell rather than here.
type envelope struct {
	task    Task
	fut     *Future
	ctx     context.Context
	enq     time.Duration // monotonic submit stamp: time.Since(e.base)
	barrier func()
}

// carries reports whether the envelope's submitter wants the task's result
// (and therefore its timestamps).
func (env *envelope) carries() bool { return env.fut != nil }

// settle delivers the completion to the envelope's shell (waiter or
// callback).
func (env *envelope) settle(res TaskResult) {
	if env.fut != nil {
		env.fut.complete(res)
	}
}

// workerCounters is one worker's statistics block, padded to a cache line so
// per-task increments on neighbouring workers never contend — the same
// false-sharing discipline paddedCounter applies to the legacy Pool, widened
// to every counter the worker loop touches.
//
//kstmvet:padalign
//kstmvet:statsfold Executor.Stats
type workerCounters struct {
	completed atomic.Uint64
	cancelled atomic.Uint64
	failed    atomic.Uint64
	empty     atomic.Uint64
	deadline  atomic.Uint64
	borrowed  atomic.Uint64
	_         [16]byte
}

// shardState is one partition of the executor's transactional state: the
// STM instance and workload a set of workers executes in, plus the STM
// counter baseline captured at Start for delta reporting.
type shardState struct {
	stm      *stm.STM
	workload Workload
	before   stm.StatsSnapshot
}

// defaultExecConfig resolves option defaults.
func defaultExecConfig() execConfig {
	return execConfig{
		workers:      runtime.GOMAXPROCS(0),
		sharding:     ShardShared,
		schedKind:    SchedAdaptive,
		schedMin:     0,
		schedMax:     dist.MaxKey,
		backpressure: BackpressureBlock,
		migration:    MigrateOff,
	}
}

// NewExecutor validates options and builds a stopped executor; call Start
// to spawn its workers.
func NewExecutor(opts ...Option) (*Executor, error) {
	cfg := defaultExecConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workload == nil && cfg.factory == nil {
		return nil, fmt.Errorf("core: NewExecutor requires WithWorkload or WithWorkloadFactory")
	}
	if cfg.workload != nil && cfg.factory != nil {
		return nil, fmt.Errorf("core: WithWorkload and WithWorkloadFactory are mutually exclusive")
	}
	if cfg.workers <= 0 {
		return nil, fmt.Errorf("core: %d workers, want > 0", cfg.workers)
	}
	switch cfg.backpressure {
	case BackpressureBlock, BackpressureReject:
	default:
		return nil, fmt.Errorf("core: unknown backpressure mode %q", cfg.backpressure)
	}
	var shards []shardState
	switch cfg.sharding {
	case ShardShared:
		if cfg.stm == nil {
			cfg.stm = stm.New()
		}
		w := cfg.workload
		if w == nil {
			w = cfg.factory.NewShard(0)
		}
		shards = []shardState{{stm: cfg.stm, workload: w}}
	case ShardPerWorker:
		if cfg.factory == nil {
			return nil, fmt.Errorf("core: ShardPerWorker requires WithWorkloadFactory (shard-local state cannot be built from one shared Workload)")
		}
		if cfg.stm != nil {
			return nil, fmt.Errorf("core: WithSTM is incompatible with ShardPerWorker (each worker owns a private STM instance)")
		}
		if sz, ok := cfg.factory.(ShardSizer); ok {
			sz.SetShards(cfg.workers)
		}
		shards = make([]shardState, cfg.workers)
		for i := range shards {
			shards[i] = shardState{stm: stm.New(), workload: cfg.factory.NewShard(i)}
		}
	default:
		return nil, fmt.Errorf("core: unknown sharding mode %q", cfg.sharding)
	}
	if cfg.scheduler == nil {
		s, err := NewScheduler(cfg.schedKind, cfg.schedMin, cfg.schedMax, cfg.workers, cfg.adaptOpts...)
		if err != nil {
			return nil, err
		}
		cfg.scheduler = s
	}
	var migr *migrator
	switch cfg.migration {
	case MigrateOff, "":
	case MigrateOnRepartition:
		if cfg.sharding != ShardPerWorker {
			return nil, fmt.Errorf("core: WithMigration(MigrateOnRepartition) requires WithSharding(ShardPerWorker); shared state needs no migration")
		}
		sf, ok := cfg.factory.(StoreFactory)
		if !ok {
			return nil, fmt.Errorf("core: WithMigration(MigrateOnRepartition) requires a WorkloadFactory implementing StoreFactory (shard state must be extractable)")
		}
		ad, ok := cfg.scheduler.(*Adaptive)
		if !ok {
			return nil, fmt.Errorf("core: WithMigration(MigrateOnRepartition) requires the adaptive scheduler (%q never re-partitions)", cfg.scheduler.Name())
		}
		if ad.workers != cfg.workers {
			// Dispatch clamps a mismatched scheduler's picks into range;
			// the migrator indexes shards and queues by partition owner
			// and cannot — reject the configuration up front.
			return nil, fmt.Errorf("core: WithMigration(MigrateOnRepartition): scheduler partitions %d workers but the executor has %d", ad.workers, cfg.workers)
		}
		migr = &migrator{stores: make([]ShardStore, cfg.workers)}
		for i := range migr.stores {
			st := sf.Store(i)
			if st == nil {
				return nil, fmt.Errorf("core: WithMigration(MigrateOnRepartition): StoreFactory returned a nil store for shard %d", i)
			}
			migr.stores[i] = st
		}
		ad.setRepartitionGate(migr.onRepartition)
	default:
		return nil, fmt.Errorf("core: unknown migration mode %q", cfg.migration)
	}
	var split *splitRunner
	if cfg.split != nil {
		if migr != nil {
			return nil, fmt.Errorf("core: WithSplitPhase is incompatible with WithMigration(MigrateOnRepartition): an epoch serialises on one dispatch gate, and neither hand-off (range move, accumulator merge) is written to run inside the other's fence")
		}
		var err error
		if split, err = newSplitRunner(&cfg, shards); err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.maxDepth < 0:
		return nil, fmt.Errorf("core: queue depth %d, want > 0 (or 0 for the default %d)", cfg.maxDepth, defaultMaxQueueDepth)
	case cfg.maxDepth == 0:
		cfg.maxDepth = defaultMaxQueueDepth
	}
	e := &Executor{
		cfg:      cfg,
		queues:   make([]*queue.Ring[envelope], cfg.workers),
		shards:   shards,
		migr:     migr,
		split:    split,
		wstats:   make([]workerCounters, cfg.workers),
		waitHist: make([]*latency.Histogram, cfg.workers),
		execHist: make([]*latency.Histogram, cfg.workers),
		stopped:  make(chan struct{}),
		shutdown: make(chan struct{}),
		base:     time.Now(),
	}
	e.initWakes(cfg.workers)
	switch {
	case migr != nil:
		e.epoch = &migr.epoch
	case split != nil:
		e.epoch = &split.epoch
	}
	if e.epoch != nil {
		e.epoch.e = e
	}
	for i := 0; i < cfg.workers; i++ {
		e.waitHist[i] = latency.New()
		e.execHist[i] = latency.New()
	}
	for i := range e.queues {
		e.queues[i] = queue.NewRing[envelope](cfg.maxDepth)
	}
	return e, nil
}

// Start spawns the worker threads. Cancelling ctx is equivalent to Stop:
// submission closes and queued tasks complete with ErrStopped.
func (e *Executor) Start(ctx context.Context) error {
	if ctx == nil {
		ctx = backgroundCtx
	}
	e.borrowOK = e.epoch == nil && e.cfg.sortBatch <= 1 && e.onDone == nil
	if !e.state.CompareAndSwap(stateNew, stateRunning) {
		return ErrAlreadyStarted
	}
	e.startMu.Lock()
	e.started = time.Now()
	for i := range e.shards {
		e.shards[i].before = e.shards[i].stm.Stats()
	}
	e.startMu.Unlock()
	for i := 0; i < e.cfg.workers; i++ {
		e.workers.Add(1)
		go func(i int) {
			defer e.workers.Done()
			e.worker(i)
		}(i)
	}
	if e.split != nil {
		// The epoch-merge coordinator is not a worker: it outlives the
		// draining state (parked tasks count in flight and Drain needs their
		// release) and exits on the stopped channel.
		e.split.started.Store(true)
		go e.split.loop()
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				e.halt()
			case <-e.shutdown:
			}
		}()
	}
	return nil
}

// Submit dispatches one task and blocks until it completes (or ctx is
// cancelled). The returned error is the task's own completion error, so a
// nil error means the transaction committed.
//
// Cancellation does NOT un-submit: if ctx is cancelled after acceptance,
// Submit returns ctx.Err() but the task either executes anyway (a mutation
// the caller can no longer observe — the orphaned-task contract, see
// Future.Wait) or is abandoned by its worker before execution and counted
// under ExecStats.Cancelled. Callers that must know the outcome should use
// SubmitAsync and keep the Future.
//
//kstmvet:hotpath
func (e *Executor) Submit(ctx context.Context, t Task) (TaskResult, error) {
	fut, err := e.SubmitAsync(ctx, t)
	if err != nil {
		return TaskResult{}, err
	}
	return fut.Wait(ctx) //kstmvet:ignore Submit is the synchronous form: waiting for the result is its contract, not overhead
}

// SubmitAsync dispatches one task and returns its Future. Under
// BackpressureReject a full target queue returns ErrQueueFull; under
// BackpressureBlock the call waits for space, ctx cancellation, or stop.
//
// The Future comes from a pool: it is single-consumer, and the Wait/WaitValue
// call that returns the task's result recycles it (see Future).
//
//kstmvet:hotpath
func (e *Executor) SubmitAsync(ctx context.Context, t Task) (*Future, error) {
	return e.submit(ctx, t, 0, nil)
}

// submit is the one submission core behind SubmitAsync, SubmitFunc,
// SubmitFuncTimed and SubmitAll's loop: admission, shell, stamp,
// dispatch, unwind. A non-nil cb makes the shell a callback carrier (the
// returned Future is then the settler's, not the caller's); a positive budget
// sets the queue deadline.
//
//kstmvet:hotpath
func (e *Executor) submit(ctx context.Context, t Task, budget time.Duration, cb func(TaskResult)) (*Future, error) {
	if ctx == nil {
		ctx = backgroundCtx
	}
	env, err := e.admit(ctx, t, budget)
	if err != nil {
		return nil, err
	}
	if cb != nil {
		// Conditional on purpose: a pooled shell's cb is already nil, and the
		// shell's cache line was last written by the worker that settled it —
		// SubmitAsync must not pull it across cores just to store a nil.
		env.fut.cb = cb
	}
	if err := e.post(env, ctx); err != nil {
		return nil, err
	}
	return env.fut, nil
}

// admit is the submission prologue shared by submit and SubmitFuncOrRun:
// count in flight, check the state, take a shell, stamp, set the deadline.
//
//kstmvet:hotpath
func (e *Executor) admit(ctx context.Context, t Task, budget time.Duration) (envelope, error) {
	// Count the submission in flight BEFORE the state check: atomics are
	// sequentially consistent, so either this submitter observes a
	// non-running state and backs out, or Drain/halt observe the
	// increment and wait for the task. Checking first and counting later
	// would let Drain read in-flight == 0, conclude it is done, and
	// abandon a task whose Submit call reported acceptance.
	e.inflight.Add(1)
	if e.state.Load() != stateRunning {
		e.decInflight(1)
		return envelope{}, ErrNotRunning
	}
	fut := newFuture()
	enq := time.Since(e.base) //kstmvet:ignore the one clock read per submission the latency accounting budgets for (DESIGN.md §5)
	if budget > 0 {
		fut.deadline = enq + budget
	}
	return envelope{task: t, fut: fut, ctx: ctx, enq: enq}, nil
}

// post dispatches an admitted envelope; on failure dispatch has released the
// in-flight count and the never-shared shell goes straight back to the pool.
//
//kstmvet:hotpath
func (e *Executor) post(env envelope, ctx context.Context) error {
	if err := e.dispatch(env, ctx); err != nil {
		env.fut.cb = nil
		env.fut.deadline = 0
		env.fut.discard()
		return err
	}
	return nil
}

// SubmitFunc dispatches one task and invokes done with its TaskResult when
// it settles (executed, cancelled, or abandoned at stop — res.Err carries the
// completion error exactly as Future.Wait would). It is SubmitAsync without
// the Future: no per-request shell, no bridging goroutine — the callback
// form servers use to keep a connection's cost flat regardless of
// pipelining depth.
//
// done runs on an executor goroutine (usually the settling worker) and MUST
// NOT block: park the result on your own queue and return. Acceptance errors
// (ErrQueueFull, ErrNotRunning, ctx.Err) return from SubmitFunc itself, in
// which case done will never be called.
//
//kstmvet:hotpath
func (e *Executor) SubmitFunc(ctx context.Context, t Task, done func(TaskResult)) error {
	return e.SubmitFuncTimed(ctx, t, 0, done)
}

// SubmitFuncTimed is SubmitFunc with a queue deadline: if budget elapses
// before a worker reaches the task, the worker sheds it without executing —
// done receives ErrDeadlineExpired and the task counts under
// ExecStats.DeadlineExpired (DESIGN.md §10.1). A non-positive budget means
// no deadline (identical to SubmitFunc). The deadline applies to QUEUE time
// only: once execution begins the task runs to completion.
//
// The deadline rides in the pooled Future shell, so the submission stays at
// SubmitFunc's cost — no extra allocation and no timer; expiry is detected
// by the dequeuing worker against a clock read it was already paying for.
//
//kstmvet:hotpath
func (e *Executor) SubmitFuncTimed(ctx context.Context, t Task, budget time.Duration, done func(TaskResult)) error {
	if done == nil {
		return fmt.Errorf("core: SubmitFunc requires a non-nil callback")
	}
	_, err := e.submit(ctx, t, budget, done)
	return err
}

// SubmitFuncOrRun is SubmitFuncTimed for a depth-1 caller — one with nothing
// else in flight that would wait for the result anyway. When the task's owner
// worker is parked with an empty queue, the calling goroutine borrows it
// (caller-runs, DESIGN.md §5.4): it executes the task itself with the
// worker's thread, shard and counters and returns the result with ran=true,
// and done is never called. Otherwise the task is queued exactly as
// SubmitFuncTimed queues it (ran=false, done settles it later) and err
// reports acceptance.
//
// A borrowed task counts as submitted and completed like a queued one, plus
// ExecStats.Borrowed. The call never borrows under migration or split phase,
// with SortBatch > 1, or behind a busy owner.
//
//kstmvet:hotpath
func (e *Executor) SubmitFuncOrRun(ctx context.Context, t Task, budget time.Duration, done func(TaskResult)) (res TaskResult, ran bool, err error) {
	if done == nil {
		return TaskResult{}, false, fmt.Errorf("core: SubmitFuncOrRun requires a non-nil callback")
	}
	if ctx == nil {
		ctx = backgroundCtx
	}
	env, err := e.admit(ctx, t, budget)
	if err != nil {
		return TaskResult{}, false, err
	}
	if e.borrowOK {
		// Route without sampling: a declined borrow goes through dispatch,
		// whose first pick samples the key.
		if w := e.repick(t.Key); e.borrow(w) {
			if _, ok := e.cfg.scheduler.(interface{ Repick(uint64) int }); ok {
				// The sample dispatch's first pick would have taken (for the
				// other schedulers repick already was that Pick).
				e.cfg.scheduler.Pick(t.Key)
			}
			e.submitted.Add(1)
			wc := &e.wstats[w]
			wc.borrowed.Add(1)
			// The enq stamp is the service start: nothing sat in between.
			e.execOne(w, &e.shards[e.shardOf(w)], e.wakes[w].th, wc, &env, env.enq)
			e.release(w)
			res = env.fut.res
			env.fut.consume()
			return res, true, nil
		}
	}
	env.fut.cb = done
	return TaskResult{}, false, e.post(env, ctx)
}

// SubmitAll dispatches a batch: it is a loop over SubmitAsync's submission
// core, one admission, clock read, pick and dispatch per task, so a batch
// behaves exactly as the same tasks submitted one SubmitAsync call at a time.
// Tasks bound for the same worker keep their relative order. A batch may
// straddle a re-partition (or a migration fence or split epoch): each task is
// routed on the partition current when its own dispatch picks it.
//
// The returned slice is position-aligned with tasks: futs[i] is task i's
// Future. On success every entry is non-nil. On error (ErrQueueFull under
// BackpressureReject, ctx.Err on cancellation, ErrNotRunning/ErrStopped past
// Drain/Stop) submission stops at the failing task, and the entries for it
// and every later task are nil; under ErrQueueFull, ExecStats.Rejected
// counts each of them. The non-nil futures are live and settle normally —
// each completes when its task executes (or with ErrStopped if the executor
// halts first) — so callers must still Wait them; dropping them leaks no
// resources but loses those tasks' results.
//
//kstmvet:hotpath
func (e *Executor) SubmitAll(ctx context.Context, tasks []Task) ([]*Future, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	futs := make([]*Future, len(tasks)) //kstmvet:ignore the position-aligned result slice SubmitAll's contract returns
	for i, t := range tasks {
		fut, err := e.submit(ctx, t, 0, nil)
		if err != nil {
			if errors.Is(err, ErrQueueFull) {
				// dispatch counted task i; the rest were never offered.
				e.rejected.Add(uint64(len(tasks) - i - 1))
			}
			return futs, err
		}
		futs[i] = fut
	}
	return futs, nil
}

// dispatch routes an envelope to its worker queue (or, under an epoch gate,
// to the hold queue the configured subsystem diverts it to), applying
// backpressure — the one dispatch loop every submission path ends in. The
// caller has already counted the envelope in flight; every error path here
// releases that count exactly once.
//
// With migration or split phase configured, the pick, the divert and the
// enqueue-or-park happen under the epoch's read gate, so a capture or release
// (write gate) never interleaves with a half-routed task — a task either
// lands in a queue the epoch's drain barrier will cover, or parks for the
// release. The backpressure wait happens OUTSIDE the gate: a submitter
// blocked on a full queue must not block an epoch. Without either, the path
// is three nil checks and takes no lock at all.
//
// Ordering matters: the pick comes BEFORE the divert. The migrator stores its
// fence and THEN the scheduler swaps the partition, so a dispatcher whose
// pick observed the new partition is guaranteed to observe the fence (or its
// release, which means the hand-off already completed) and park the
// moved-range task. Checked first, the fence could read nil while the pick
// reads the new partition — routing a moved-range task to a new owner whose
// state has not arrived, behind no drain barrier. And a full hold queue falls
// through to backpressure but NEVER to a worker queue: the state the task
// needs is in transit.
//
//kstmvet:hotpath
func (e *Executor) dispatch(env envelope, ctx context.Context) error {
	ep := e.epoch
	var b backoff
	for attempt := 0; ; attempt++ {
		if ep != nil {
			ep.gate.RLock()
		}
		// Sample the key into the adaptive histogram on the first attempt
		// only; backpressure retries re-route on the current partition
		// without re-sampling.
		var w int
		if attempt == 0 {
			w = e.pick(env.task.Key)
		} else {
			w = e.repick(env.task.Key)
		}
		res := parkMiss
		if ep != nil {
			w, res = e.divert(&env, w)
		}
		room := res == parkMiss && e.queues[w].TryPut(env)
		if ep != nil {
			ep.gate.RUnlock()
		}
		switch {
		case room:
			e.submitted.Add(1)
			e.wakeWorker(w)
			return nil
		case res == parkHeld:
			e.submitted.Add(1)
			return nil
		case e.cfg.backpressure == BackpressureReject:
			e.decInflight(1)
			e.rejected.Add(1)
			return ErrQueueFull
		case e.state.Load() == stateStopped:
			e.decInflight(1)
			return ErrStopped
		}
		select {
		case <-ctx.Done():
			e.decInflight(1)
			return ctx.Err()
		default:
		}
		if res == parkFull {
			// Space on a hold queue comes from an epoch's release or capture,
			// not a worker dequeue — the space event cannot see it, so this
			// (rare, mid-epoch) wait keeps the timed backoff.
			b.wait()
		} else {
			e.waitSpace(w, ctx)
		}
	}
}

// backoff yields for the first spins and then parks in short sleeps. Since
// event-driven dispatch (wake.go) it survives only on waits with no event
// source to block on: halt's final sweep (post-stop straggler Puts cannot
// wake dead workers, so the sweep must poll) and the fenced/hold-queue-full
// backpressure case, where space comes from an epoch's release rather than a
// worker dequeue.
type backoff int

// backoffSpins is how many Gosched-only iterations precede sleeping; short
// waits stay latency-optimal, long waits cost at most one core wakeup per
// backoffPark.
const (
	backoffSpins = 64
	backoffPark  = 100 * time.Microsecond
)

func (b *backoff) wait() {
	if *b < backoffSpins {
		*b++
		runtime.Gosched()
		return
	}
	time.Sleep(backoffPark)
}

// inject is the closed-world path used by the legacy Pool's producers:
// fire-and-forget through dispatch, no per-task plumbing (the Pool always
// configures blocking backpressure). It reports false once the executor
// stops accepting work.
func (e *Executor) inject(t Task) bool {
	e.inflight.Add(1)
	// Same increment-then-recheck ordering as submit: never enqueue into an
	// executor whose halt has already settled.
	if e.stopping() {
		e.decInflight(1)
		return false
	}
	return e.dispatch(envelope{task: t}, backgroundCtx) == nil
}

// pick maps a key to a worker queue, clamping a scheduler that was built
// for a different worker count (a configuration mismatch) into range rather
// than crashing mid-run.
func (e *Executor) pick(key uint64) int {
	return e.clampWorker(e.cfg.scheduler.Pick(key))
}

// repick is pick for retry loops: schedulers that distinguish routing from
// sampling (Adaptive.Repick) route without recording the key again, so a
// submitter blocked in backpressure samples once per task, not per tick.
func (e *Executor) repick(key uint64) int {
	if r, ok := e.cfg.scheduler.(interface{ Repick(uint64) int }); ok {
		return e.clampWorker(r.Repick(key))
	}
	return e.clampWorker(e.cfg.scheduler.Pick(key))
}

func (e *Executor) clampWorker(w int) int {
	if w < 0 || w >= len(e.queues) {
		w = ((w % len(e.queues)) + len(e.queues)) % len(e.queues)
	}
	return w
}

// drainBatch is how many envelopes a worker takes from its queue per poll
// when no SortBatch is configured: enough to amortize the per-poll state
// checks and clock reads, small enough that a Stop still lands promptly
// (execBatch re-checks the state before every task).
const drainBatch = 32

// worker follows the paper's regimen (§4.1): get the next transaction,
// execute it (the workload retries until success), bump the local counter —
// batched: each poll drains up to drainBatch (or SortBatch) envelopes and
// executes them in one pass, threading a single clock read from each task's
// settle into the next task's service start. With SortBatch set the batch
// executes in ascending key order (§2's buffer-reordering capability).
//
//kstmvet:hotpath
func (e *Executor) worker(i int) {
	sh := &e.shards[e.shardOf(i)]
	th := sh.stm.NewThread() //kstmvet:ignore one transactional thread per worker lifetime, not per task
	// Published before the first park (the idleParked store orders it): a
	// borrower executes with this thread (wake.go).
	e.wakes[i].th = th
	wc := &e.wstats[i]
	// SortBatch, when set, bounds the drain exactly (its contract is "drain
	// up to n and key-order them"); otherwise drain the default batch.
	capN := drainBatch
	if e.cfg.sortBatch > 1 {
		capN = e.cfg.sortBatch
	}
	batch := make([]envelope, 0, capN) //kstmvet:ignore one drain buffer per worker lifetime, reused across every poll
	spins := 0
	for {
		// Check the state before taking more work so that Stop abandons
		// queued tasks (halt settles them) instead of racing to finish
		// them; Drain keeps workers alive via the draining state below.
		if e.state.Load() == stateStopped {
			return
		}
		env, ok := e.queues[i].Get()
		if !ok {
			switch e.state.Load() {
			case stateStopped:
				return
			case stateDraining:
				// Drain: other queues (or blocked submitters) may still
				// produce work for this one; exit only when every accepted
				// task has finished. Parking is event-driven — the last
				// finisher's decInflight broadcasts, and any enqueue (a
				// split release, a migration unpark, a submitter clearing
				// backpressure) wakes the owner directly.
				if e.inflight.Load() == 0 {
					return
				}
				env, ok = e.parkWorker(i)
			default:
				// Empty poll: yield through a short spin window (cheap gaps
				// in a steady stream stay futex-free), then park on the wake
				// token — a fully idle executor blocks instead of waking
				// every backoffPark per worker.
				wc.empty.Add(1)
				if spins < parkSpins {
					spins++
					runtime.Gosched()
					continue
				}
				env, ok = e.parkWorker(i)
			}
			if !ok {
				continue
			}
		}
		spins = 0
		e.signalSpace(i)
		if env.barrier != nil {
			// Migration drain point: everything enqueued before it has
			// executed; tell the migrator and move on.
			env.barrier()
			continue
		}
		// Drain a batch. A barrier ends it — it must observe every earlier
		// task executed, and reordering across it would let a pre-fence task
		// run after the migrator starts extracting its range's state.
		var barrier func()
		batch = append(batch[:0], env)
		for len(batch) < capN {
			more, ok := e.queues[i].Get()
			if !ok {
				break
			}
			if more.barrier != nil {
				barrier = more.barrier
				break
			}
			batch = append(batch, more)
		}
		if e.cfg.sortBatch > 1 && len(batch) > 1 {
			slices.SortFunc(batch, func(a, b envelope) int { return cmp.Compare(a.task.Key, b.task.Key) })
		}
		e.execBatch(i, sh, th, wc, batch)
		if barrier != nil {
			barrier()
		}
		// Envelopes hold futures and contexts; drop the references before
		// the next poll parks so a long-idle worker pins none of them.
		clear(batch)
	}
}

// execBatch runs one drained batch, re-checking the stop state before every
// task (a batched worker must not delay Stop by up to a batch) and threading
// the settle-side clock read of task k into the service start of task k+1 —
// one time.Now per result-carrying task in steady state instead of two.
//
//kstmvet:hotpath
func (e *Executor) execBatch(i int, sh *shardState, th *stm.Thread, wc *workerCounters, batch []envelope) {
	var now time.Duration
	for k := range batch {
		if e.state.Load() == stateStopped {
			e.abandon(i, batch[k], ErrStopped)
			continue
		}
		now = e.execOne(i, sh, th, wc, &batch[k], now)
	}
}

// execOne executes a single envelope in its worker's shard and settles its
// completion plumbing. Clocks are monotonic offsets from e.base: start,
// when non-zero, is a read taken after the previous task settled — it IS
// this task's service start; execOne returns its own settle-side read for
// the next task (zero when it read no clock).
//
//kstmvet:hotpath
func (e *Executor) execOne(i int, sh *shardState, th *stm.Thread, wc *workerCounters, env *envelope, start time.Duration) time.Duration {
	// Abandoned before execution? Settle without running the transaction.
	// This is cancellation, not completion: the task never executed, so it
	// must not inflate Completed (and through it Throughput and
	// LoadImbalance) — it is accounted under Cancelled instead.
	if env.ctx != nil {
		select {
		case <-env.ctx.Done():
			e.abandon(i, *env, env.ctx.Err())
			return start
		default:
		}
	}
	// Queue-deadline shed: a task whose SubmitFuncTimed budget expired while
	// it sat queued is doomed — its client has given up — so executing it
	// only steals service time from live work. Only deadline-carrying shells
	// pay the check, and the clock read it needs doubles as this (or the
	// next) task's service-start read, so deadline-less traffic is untouched.
	if env.fut != nil && env.fut.deadline != 0 {
		if start == 0 {
			start = time.Since(e.base) //kstmvet:ignore deadline-carrying tasks only: the read is reused as the service-start stamp below
		}
		if start > env.fut.deadline {
			e.shed(i, *env)
			return start
		}
	}
	// Split-phase routing: a dequeued split-key envelope is absorbed into
	// this worker's local accumulator slot (commutative op), parked until
	// the next epoch merge (non-commutative straggler, or demote window), or
	// executed transactionally (not split, or a coordinator release whose
	// merge has landed). Parking consumes the envelope without settling it —
	// the task stays in flight until the coordinator releases or halt
	// abandons it.
	var localAcc *splitKey
	var localKind splitphase.Kind
	if s := e.split; s != nil {
		act, sk, kind := s.route(i, env.task)
		switch act {
		case splitActPark:
			sk.hold.park(*env, 0)
			s.parkedTasks.Add(1)
			s.requestMerge()
			return start
		case splitActLocal:
			localAcc, localKind = sk, kind
		}
	}
	if !env.carries() {
		// Fire-and-forget fast path: no clocks, errors are fatal. A
		// failed task is NOT counted as completed, matching the legacy
		// Pool accounting the harness results are built on.
		if localAcc != nil {
			localAcc.acc.Apply(i, localKind, env.task.Arg)
			// Nudge AFTER Apply: a deep-idle coordinator's recheck either
			// sees this slot dirty, or this load sees the idle flag.
			e.split.nudgeIdle()
			e.finish(i, wc, env, TaskResult{})
			return 0
		}
		if _, err := sh.workload.Execute(th, env.task); err != nil {
			wc.failed.Add(1)
			e.fail(err) //kstmvet:ignore hard-failure path: fail latches the first workload error once, not per task
			e.decInflight(1)
			return 0 // an unclocked stretch: invalidate the chain
		}
		e.finish(i, wc, env, TaskResult{})
		return 0
	}
	if start == 0 {
		start = time.Since(e.base) //kstmvet:ignore first task of a batch: the service-start read the settle chain amortizes away for the rest
	}
	var val any
	var err error
	if localAcc != nil {
		// The local absorb completes the task: commutative split-key ops
		// return nil values on the STM path too, so the settle below is
		// indistinguishable from a transactional completion.
		localAcc.acc.Apply(i, localKind, env.task.Arg)
		e.split.nudgeIdle()
	} else {
		val, err = sh.workload.Execute(th, env.task)
	}
	if err != nil {
		wc.failed.Add(1)
	}
	end := time.Since(e.base) //kstmvet:ignore the settle-side clock read threaded into the next task's service start: one read per result-carrying task
	wait, exec := start-env.enq, end-start
	e.waitHist[i].Observe(wait)
	e.execHist[i].Observe(exec)
	e.finish(i, wc, env, TaskResult{
		Task:   env.task,
		Worker: i,
		Value:  val,
		Err:    err,
		Wait:   wait,
		Exec:   exec,
	})
	return end
}

// finish updates completion accounting and settles the submitter's plumbing.
// It is reached only for tasks that actually executed; tasks abandoned
// before execution go through abandon instead.
//
//kstmvet:hotpath
func (e *Executor) finish(i int, wc *workerCounters, env *envelope, res TaskResult) {
	wc.completed.Add(1)
	env.settle(res)
	e.decInflight(1)
	if e.onDone != nil {
		e.onDone()
	}
}

// abandon settles a task that was accepted but never executed — its
// submission context was cancelled, or the executor stopped, while it sat
// queued. The task counts under Cancelled, never Completed: the workload did
// not run, so completion counters (and the throughput and load-imbalance
// figures built on them) must not see it.
func (e *Executor) abandon(i int, env envelope, err error) {
	e.wstats[i].cancelled.Add(1)
	env.settle(TaskResult{Task: env.task, Worker: i, Err: err})
	e.decInflight(1)
	if e.onDone != nil {
		e.onDone()
	}
}

// shed settles a task whose queue deadline expired before execution. Like
// abandon it never ran the workload, but it gets its own counter: deadline
// sheds are a load signal (the queue is running hotter than client budgets),
// not a client decision, and overload dashboards need the two separated.
func (e *Executor) shed(i int, env envelope) {
	e.wstats[i].deadline.Add(1)
	env.settle(TaskResult{Task: env.task, Worker: i, Err: ErrDeadlineExpired})
	e.decInflight(1)
	if e.onDone != nil {
		e.onDone()
	}
}

// shardOf maps a worker index to its shard index: all workers share shard 0
// under ShardShared; worker i IS shard i under ShardPerWorker.
func (e *Executor) shardOf(worker int) int {
	if e.cfg.sharding == ShardPerWorker {
		return worker
	}
	return 0
}

// fail records the first hard workload error and stops the executor; it is
// reached only from the legacy fire-and-forget path, where there is no
// per-task result to carry the error.
func (e *Executor) fail(err error) {
	p := &err
	if e.firstErr.CompareAndSwap(nil, p) {
		e.markStopped()
	}
}

// markStopped performs the one-way transition into the stopped state and
// signals waiters; every path that stops the executor — halt, a fatal
// workload error, the counted-run quota hook — funnels through it.
func (e *Executor) markStopped() {
	e.stopOnce.Do(func() {
		e.startMu.Lock()
		e.stoppedAt = time.Now()
		e.startMu.Unlock()
		e.state.Store(stateStopped)
		close(e.stopped)
	})
}

// Stopped returns a channel closed when the executor reaches its terminal
// state, whatever caused the transition.
func (e *Executor) Stopped() <-chan struct{} { return e.stopped }

// Err returns the first fatal workload error, if any.
func (e *Executor) Err() error {
	if p := e.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Drain closes submission, waits for every accepted task to complete, and
// stops the workers. It is the graceful half of the lifecycle; returns
// ErrNotRunning unless the executor is currently running.
func (e *Executor) Drain() error {
	if !e.state.CompareAndSwap(stateRunning, stateDraining) {
		return ErrNotRunning
	}
	// Broadcast the state change: workers parked under stateRunning must
	// re-check it (a fully idle executor drains by exiting, not by waiting
	// out a sleep quantum).
	e.wakeAll()
	// Event-driven drain barrier: the decrement that takes in-flight to zero
	// (decInflight) signals drainWake; the loop re-checks because a failing
	// post-drain submission can bounce the count through zero more than once.
	for e.inflight.Load() > 0 && e.state.Load() == stateDraining {
		select {
		case <-e.drainWake:
		case <-e.stopped:
		}
	}
	e.halt()
	return e.Err()
}

// Stop halts immediately: submission closes, workers exit after their
// current task, and tasks still queued complete with ErrStopped. Safe to
// call from any state and more than once.
func (e *Executor) Stop() error {
	e.halt()
	return e.Err()
}

// halt is the terminal transition shared by Stop, Drain, context
// cancellation and the legacy harness: set the stopped state, join the
// workers, then settle everything left behind — queued envelopes and
// blocked submitters — until the in-flight count reaches zero.
func (e *Executor) halt() {
	e.haltOnce.Do(func() {
		e.markStopped()
		close(e.shutdown)
		e.workers.Wait()
		if e.split != nil && e.split.started.Load() {
			// Wait the coordinator out, then fold every accumulator's
			// remainder into the stores: locally-absorbed commutative ops
			// already settled as completed, so their deltas must land even
			// on a hard Stop.
			<-e.split.done
			e.split.flushFinal()
		}
		var b backoff
		for {
			drained := false
			for i := range e.queues {
				for {
					env, ok := e.queues[i].Get()
					if !ok {
						break
					}
					drained = true
					if env.barrier != nil {
						// Unexecuted migration barrier: signal it so the
						// migrator unblocks (it observes the stopped state
						// and aborts); barriers carry no task accounting.
						env.barrier()
						continue
					}
					e.abandon(i, env, ErrStopped)
				}
			}
			// Tasks parked on a hold queue are in flight too.
			if e.epoch != nil {
				for _, env := range e.takeHeld() {
					drained = true
					e.abandon(0, env, ErrStopped)
				}
			}
			if e.inflight.Load() == 0 {
				return
			}
			if !drained {
				// Remaining in-flight entries are blocked submitters
				// that will observe the stopped state and give up.
				b.wait()
			}
		}
	})
}

// ShardStats reports one state partition's share of a run: which workers
// execute in it, how much they completed, and the shard-local STM counter
// deltas since Start.
type ShardStats struct {
	// Shard is the partition index (0 for the single shared shard).
	Shard int
	// Workers lists the worker indexes executing in this shard.
	Workers []int
	// Completed counts tasks finished by this shard's workers.
	Completed uint64
	// STM is the shard's STM counter delta since Start.
	STM stm.StatsSnapshot
}

// ExecStats is a live snapshot of executor state and counters; Stats may be
// called at any time, including mid-run from other goroutines.
//
// Every field must be populated by Stats — the statsfold directive makes
// "added a counter, forgot the fold" a build break (DESIGN.md §8.7).
//
//kstmvet:statsfold Executor.Stats
type ExecStats struct {
	// State is the lifecycle state: new, running, draining or stopped.
	State string
	// Workers is the worker-thread count.
	Workers int
	// Scheduler names the dispatch policy.
	Scheduler string
	// Sharding is the state-partitioning mode (shared or perworker).
	Sharding ShardMode
	// Submitted counts tasks accepted into worker queues or run by a
	// borrower (Borrowed).
	Submitted uint64
	// Rejected counts ErrQueueFull rejections.
	Rejected uint64
	// Completed counts tasks that actually executed (including ones whose
	// workload returned a hard error). Tasks accepted but abandoned before
	// execution — submission context cancelled, or executor stopped, while
	// they sat queued — are NOT completed; they count under Cancelled, so
	// Throughput and LoadImbalance reflect executed work only.
	Completed uint64
	// Cancelled counts tasks accepted into queues but abandoned before
	// execution (context cancellation or stop). Their futures settle with
	// the context's error or ErrStopped.
	Cancelled uint64
	// Failed counts tasks whose workload returned a hard error.
	Failed uint64
	// DeadlineExpired counts tasks shed because their SubmitFuncTimed queue
	// deadline expired before a worker reached them. Like Cancelled they
	// never executed, but they are counted apart: sheds measure overload
	// (queue time exceeding client budgets), not client intent.
	DeadlineExpired uint64
	// Borrowed counts tasks a SubmitFuncOrRun caller ran itself on a parked
	// owner's execution state (caller-runs); they are also in Submitted and,
	// once run, in Completed or Cancelled like any other task.
	Borrowed uint64
	// InFlight is the current accepted-but-unfinished count.
	InFlight int64
	// PerWorker holds per-worker completion counts.
	PerWorker []uint64
	// QueueDepths holds the approximate current queue lengths.
	QueueDepths []int
	// EmptyPolls counts worker polls that found an empty queue.
	EmptyPolls uint64
	// Steals is always zero: every worker queue has one consumer, its owner.
	// The field stays while benchmark/run.go reads it for core.steals.
	Steals uint64
	// Elapsed is the time since Start.
	Elapsed time.Duration
	// STM is the delta of the STM counters since Start — summed across
	// shards when the executor is sharded.
	STM stm.StatsSnapshot
	// Shards reports per-shard completion and STM deltas (one entry under
	// ShardShared, one per worker under ShardPerWorker).
	Shards []ShardStats
	// SchedulerEpochs counts the adaptive scheduler's partition rebuilds
	// (0 under other policies) — with migration on, the re-partitions the
	// hand-off protocol tracked; without it, the moves that re-routed
	// ranges away from their state.
	SchedulerEpochs uint64
	// Migrations reports the epoch-fenced shard-state hand-off counters;
	// all zero unless WithMigration(MigrateOnRepartition) is configured.
	Migrations MigrationStats
	// Split reports the split-phase execution counters (split keys, merge
	// epochs, parked tasks); all zero unless WithSplitPhase is configured.
	Split SplitStats
	// Wait holds queue-wait latency percentiles over result-carrying
	// submissions (Submit/SubmitAsync/SubmitAll; the legacy
	// fire-and-forget path is unclocked).
	Wait latency.Summary
	// Service holds workload execution-time percentiles (retries
	// included) over the same submissions.
	Service latency.Summary
}

// Throughput returns completed tasks per second since Start.
func (s ExecStats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Elapsed.Seconds()
}

// LoadImbalance returns max(per-worker completed) / ideal share; 1.0 is
// perfect balance (the paper's §4.4 measure, live).
func (s ExecStats) LoadImbalance() float64 {
	if s.Completed == 0 || len(s.PerWorker) == 0 {
		return 1
	}
	ideal := float64(s.Completed) / float64(len(s.PerWorker))
	worst := 0.0
	for _, n := range s.PerWorker {
		if v := float64(n) / ideal; v > worst {
			worst = v
		}
	}
	return worst
}

// Stats returns a live snapshot. The worker-side counters live in per-worker
// cache-line-padded blocks; this is where they fold into totals, so the hot
// path pays local increments and only the (rare) stats reader walks them.
func (e *Executor) Stats() ExecStats {
	s := ExecStats{
		State:       stateName(e.state.Load()),
		Workers:     e.cfg.workers,
		Scheduler:   e.cfg.scheduler.Name(),
		Sharding:    e.cfg.sharding,
		Submitted:   e.submitted.Load(),
		Rejected:    e.rejected.Load(),
		InFlight:    e.inflight.Load(),
		PerWorker:   make([]uint64, len(e.wstats)),
		QueueDepths: make([]int, len(e.queues)),
		Wait:        latency.Merge(e.waitHist...),
		Service:     latency.Merge(e.execHist...),
		Steals:      0, // a queue's only consumer is its owner
	}
	if e.migr != nil {
		s.Migrations = e.migr.stats()
	}
	if e.split != nil {
		s.Split = e.split.stats()
	}
	if ad, ok := e.cfg.scheduler.(*Adaptive); ok {
		s.SchedulerEpochs = ad.Epochs()
	}
	for i := range e.wstats {
		wc := &e.wstats[i]
		s.PerWorker[i] = wc.completed.Load()
		s.Completed += s.PerWorker[i]
		s.Cancelled += wc.cancelled.Load()
		s.Failed += wc.failed.Load()
		s.DeadlineExpired += wc.deadline.Load()
		s.Borrowed += wc.borrowed.Load()
		s.EmptyPolls += wc.empty.Load()
	}
	for i, q := range e.queues {
		s.QueueDepths[i] = q.Len()
	}
	e.startMu.Lock()
	started, stoppedAt := e.started, e.stoppedAt
	befores := make([]stm.StatsSnapshot, len(e.shards))
	for i := range e.shards {
		befores[i] = e.shards[i].before
	}
	e.startMu.Unlock()
	s.Shards = make([]ShardStats, len(e.shards))
	for i := range e.shards {
		ss := ShardStats{Shard: i}
		for w := range e.wstats {
			if e.shardOf(w) == i {
				ss.Workers = append(ss.Workers, w)
				ss.Completed += s.PerWorker[w]
			}
		}
		s.Shards[i] = ss
	}
	if !started.IsZero() {
		// Freeze Elapsed at the stop instant so post-run Throughput()
		// reports the run, not the time since it.
		if !stoppedAt.IsZero() {
			s.Elapsed = stoppedAt.Sub(started)
		} else {
			s.Elapsed = time.Since(started)
		}
		for i := range e.shards {
			delta := e.shards[i].stm.Stats().Sub(befores[i])
			s.Shards[i].STM = delta
			s.STM = s.STM.Add(delta)
		}
	}
	return s
}

// Scheduler returns the dispatch policy in force (e.g. to inspect the
// learned adaptive partition).
func (e *Executor) Scheduler() Scheduler { return e.cfg.scheduler }

// Workers returns the worker-thread count.
func (e *Executor) Workers() int { return e.cfg.workers }

// Sharding returns the state-partitioning mode in force.
func (e *Executor) Sharding() ShardMode { return e.cfg.sharding }

// ShardSTM returns shard i's STM instance (tests and post-run inspection;
// shard 0 is the only shard under ShardShared).
func (e *Executor) ShardSTM(i int) *stm.STM { return e.shards[i].stm }

// ShardWorkload returns shard i's workload, e.g. to read a shard-local
// dictionary back after a drain.
func (e *Executor) ShardWorkload(i int) Workload { return e.shards[i].workload }

// NumShards returns the shard count (1, or workers under ShardPerWorker).
func (e *Executor) NumShards() int { return len(e.shards) }

// Migration returns the shard-state migration mode in force.
func (e *Executor) Migration() MigrationMode {
	if e.migr == nil {
		return MigrateOff
	}
	return MigrateOnRepartition
}

// MigrationStats returns the hand-off counters without assembling a full
// Stats snapshot (no per-worker loops, no histogram merges) — the cheap
// read for periodic operator stats.
func (e *Executor) MigrationStats() MigrationStats {
	if e.migr == nil {
		return MigrationStats{}
	}
	return e.migr.stats()
}

// MigrationErr returns the most recent hand-off error, if any. A failed
// range keeps its old-owner state (restored on partial failure — the
// MigrateOff behaviour for that range); execution itself continues.
func (e *Executor) MigrationErr() error {
	if e.migr == nil {
		return nil
	}
	return e.migr.Err()
}

// SplitPhase reports whether split-phase execution is configured.
func (e *Executor) SplitPhase() bool { return e.split != nil }

// SplitStats returns the split-phase counters without assembling a full
// Stats snapshot — the cheap read for periodic operator stats.
func (e *Executor) SplitStats() SplitStats {
	if e.split == nil {
		return SplitStats{}
	}
	return e.split.stats()
}

// SplitErr returns the most recent epoch-merge install error, if any. A
// failed install never loses deltas: the aggregate is restored into the
// accumulator and the next epoch retries.
func (e *Executor) SplitErr() error {
	if e.split == nil {
		return nil
	}
	return e.split.Err()
}

// stopping reports whether the executor has reached the stopped state; the
// legacy Pool's producer loops and the epoch skeleton's stop checks poll it.
func (e *Executor) stopping() bool { return e.state.Load() == stateStopped }
