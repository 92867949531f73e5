// Package kstm is a key-based adaptive transactional memory executor — a Go
// reproduction of Bai, Shen, Zhang, Scherer, Ding & Scott, "A Key-based
// Adaptive Transactional Memory Executor" (IPDPS 2007).
//
// The library has three layers, all usable independently:
//
//   - a dynamic software transactional memory (DSTM-style: obstruction-free,
//     clone-on-write objects, invisible reads, pluggable contention managers
//     including Polka);
//   - transactional dictionaries built on it (chained hash table, red-black
//     tree, sorted linked list, and a constant-key stack);
//   - the executor: producers generate transactions as parameter records and
//     a dispatch policy assigns each to a worker by its *transaction key*.
//     The adaptive policy samples the key distribution and partitions the
//     key space into ranges of equal probability mass (PD-partition), so
//     numerically-close keys — which touch the same data — run on the same
//     worker: better locality, fewer conflicts, balanced load.
//
// Quick start — typed lookups through the executor:
//
//	s := kstm.New()                       // an STM instance
//	table := kstm.NewHashTable(0)         // transactional dictionary
//	th := s.NewThread()                   // per-goroutine handle
//	table.Insert(th, 42)
//
//	w := kstm.WorkloadFunc(func(th *kstm.Thread, t kstm.Task) (any, error) {
//		switch t.Op {
//		case kstm.OpInsert:
//			return table.Insert(th, t.Arg)
//		case kstm.OpLookup:
//			return table.Contains(th, t.Arg) // the hit rides back in TaskResult.Value
//		}
//		return nil, fmt.Errorf("bad op %v", t.Op)
//	})
//	ex, _ := kstm.NewExecutor(kstm.WithWorkload(w), kstm.WithWorkers(8))
//	ex.Start(ctx)                         // open submission from any goroutine
//	found, _ := kstm.SubmitTyped[bool](ctx, ex,
//		kstm.Task{Key: 42, Op: kstm.OpLookup, Arg: 42})
//	ex.Drain()
//
// To scale past one STM instance, shard state per worker: the dispatch
// policy already routes each key range to a single worker, so giving every
// worker a private STM and a shard-local dictionary removes cross-worker
// conflicts entirely. Sharding needs key-stable routing: a fixed partition,
// or the adaptive one with a StoreFactory, whose shards' state the executor
// moves along with every re-partitioned range —
//
//	ex, _ := kstm.NewExecutor(
//		kstm.WithSharding(kstm.ShardPerWorker),
//		kstm.WithWorkloadFactory(kstm.WorkloadFactoryFunc(newShardTable)),
//		kstm.WithSchedulerKind(kstm.SchedFixed, 0, kstm.MaxKey),
//		kstm.WithWorkers(8),
//	)
//
// ExecStats then reports per-shard counters and wait/service latency
// percentiles (p50/p95/p99) for both modes.
//
// The paper's closed-world benchmark driver survives as a wrapper on the
// same engine:
//
//	sched, _ := kstm.NewScheduler(kstm.SchedAdaptive, 0, kstm.MaxKey, 8)
//	pool, _ := kstm.NewPool(kstm.Config{ ... Scheduler: sched ... })
//	r, _ := pool.RunCount(100000)
//	fmt.Println(r.Throughput())
//
// See examples/ for complete programs and DESIGN.md for the architecture
// and the paper-experiment index.
package kstm

import (
	"context"
	"fmt"
	"reflect"

	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/hist"
	"kstm/internal/latency"
	"kstm/internal/sim"
	"kstm/internal/splitphase"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// STM layer -----------------------------------------------------------------

// STM is a software transactional memory instance; see internal/stm.
type STM = stm.STM

// Thread is a per-goroutine handle with a private contention manager.
type Thread = stm.Thread

// Tx is one transaction attempt.
type Tx = stm.Tx

// Object is an untyped transactional object (clone-on-write versions).
type Object = stm.Object

// Box is a typed transactional cell.
type Box[T any] = stm.Box[T]

// ContentionManager arbitrates transaction conflicts.
type ContentionManager = stm.ContentionManager

// StatsSnapshot is a copy of the STM's global counters.
type StatsSnapshot = stm.StatsSnapshot

// ErrAborted is returned when a transaction loses a conflict or fails
// validation; Atomic retries it automatically.
var ErrAborted = stm.ErrAborted

// New creates an STM instance. Options select the contention manager
// (default Polka, the paper's choice).
func New(opts ...stm.Option) *STM { return stm.New(opts...) }

// WithContentionManager selects the contention-manager factory.
var WithContentionManager = stm.WithContentionManager

// NewObject creates an untyped transactional object.
var NewObject = stm.NewObject

// NewBox creates a typed transactional cell.
func NewBox[T any](initial T) Box[T] { return stm.NewBox(initial) }

// Contention managers (Scherer & Scott PODC'05 suite).
var (
	NewPolka        = stm.NewPolka
	NewKarma        = stm.NewKarma
	NewEruption     = stm.NewEruption
	NewKindergarten = stm.NewKindergarten
	NewTimestamp    = stm.NewTimestamp
	NewGreedy       = stm.NewGreedy
	NewPolite       = stm.NewPolite
	NewRandomized   = stm.NewRandomized
	NewAggressive   = stm.NewAggressive
	NewTimid        = stm.NewTimid
)

// Data structures -------------------------------------------------------------

// IntSet is the abstract dictionary interface of the benchmarks.
type IntSet = txds.IntSet

// RangeStore is the shard-migration face of a dictionary: extract every key
// in a scheduling-key range, install a batch of keys. All four structures
// implement it.
type RangeStore = txds.RangeStore

// HashTable is the paper's 30031-bucket chained hash table.
type HashTable = txds.HashTable

// RBTree is the transactional red-black tree.
type RBTree = txds.RBTree

// SortedList is the transactional sorted linked list.
type SortedList = txds.SortedList

// Stack is the §3.1 constant-key stack.
type Stack = txds.Stack

// SkipList is an extension dictionary (not in the paper's benchmarks).
type SkipList = txds.SkipList

// NewHashTable creates a hash table (0 buckets = the paper's 30031).
var NewHashTable = txds.NewHashTable

// NewRBTree creates an empty red-black tree.
var NewRBTree = txds.NewRBTree

// NewSortedList creates an empty sorted list.
var NewSortedList = txds.NewSortedList

// NewStack creates an empty stack.
var NewStack = txds.NewStack

// NewSkipList creates an empty skip list.
var NewSkipList = txds.NewSkipList

// Executor layer ----------------------------------------------------------------
//
// The open executor API: build an Executor with functional options, start
// it, and submit transaction parameter records from any goroutine —
//
//	ex, _ := kstm.NewExecutor(
//		kstm.WithWorkload(w),
//		kstm.WithWorkers(8),
//		kstm.WithBackpressure(kstm.BackpressureReject),
//	)
//	ex.Start(ctx)
//	res, err := ex.Submit(ctx, kstm.Task{Key: k, Op: kstm.OpInsert, Arg: a})
//	...
//	ex.Drain()
//
// The closed-world Pool below is the driver the paper's figures run; it
// runs on the same engine.

// Executor is the open key-based executor: each task is routed to a worker
// by its transaction key through the configured dispatch policy. It has
// three ways in: Submit (wait for the result), SubmitAsync (a Future) and
// SubmitFuncOrRun (a callback, or the caller runs the task on a parked
// owner; the server's path).
type Executor = core.Executor

// Option configures NewExecutor.
type Option = core.Option

// NewExecutor builds an executor; WithWorkload is required.
var NewExecutor = core.NewExecutor

// Executor options.
var (
	WithSTM             = core.WithSTM
	WithWorkload        = core.WithWorkload
	WithWorkloadFactory = core.WithWorkloadFactory
	WithSharding        = core.WithSharding
	WithWorkers         = core.WithWorkers
	WithSchedulerKind   = core.WithSchedulerKind
	WithQueueDepth      = core.WithQueueDepth
	WithBackpressure    = core.WithBackpressure
)

// ShardMode selects how executor state is partitioned across workers.
type ShardMode = core.ShardMode

// Sharding modes: one shared STM (the paper's configuration), or a private
// STM instance plus shard-local workload per worker.
const (
	ShardShared    = core.ShardShared
	ShardPerWorker = core.ShardPerWorker
)

// MigrationMode names the shard-state migration an executor runs.
type MigrationMode = core.MigrationMode

// MigrateOnRepartition is the epoch-fenced hand-off that ShardPerWorker under
// SchedAdaptive always runs, so sharded execution gives read-your-writes
// across any re-adaptation.
const MigrateOnRepartition = core.MigrateOnRepartition

// WithMigration asserts that the executor migrates shard state: NewExecutor
// rejects it unless the configuration is ShardPerWorker with SchedAdaptive
// and a StoreFactory, which migrates without it.
var WithMigration = core.WithMigration

// MigrationStats reports the epoch-fenced hand-off counters
// (ExecStats.Migrations): completed epochs, keys moved, total fence pause.
type MigrationStats = core.MigrationStats

// WithSplitPhase enables split-phase execution for contended keys: a
// contention detector promotes hot keys, commutative ops on promoted keys
// (the workload's CommutativeOps table) absorb into per-worker local
// accumulators without touching the STM, and an epoch coordinator merges
// the accumulators into the owning shard at epoch close. Non-commutative
// ops on a split key park until the covering merge lands, so clients never
// observe a partial merge. Requires every shard workload to implement
// CommutativeWorkload and SplitMergeWorkload; incompatible with
// ShardPerWorker under SchedAdaptive, which migrates shard state.
var WithSplitPhase = core.WithSplitPhase

// SplitOption tunes WithSplitPhase.
type SplitOption = core.SplitOption

// SplitCoalesce sets the delay between the first park on a split key and the
// merge that releases it (default 100µs; 0 merges at once). The detector's
// window and shares, the merge epoch and the split-set bound are fixed
// (DESIGN.md §9.2).
var SplitCoalesce = core.SplitCoalesce

// SplitStats reports the split-phase counters (ExecStats.Split): keys
// currently split, promotions/demotions, merge epochs, parked tasks, and
// total coordinator merge time.
type SplitStats = core.SplitStats

// CommutativeWorkload is a workload that declares which opcodes are
// commutative aggregates, and with which merge semantics — the opt-in
// surface for split-phase execution.
type CommutativeWorkload = core.CommutativeWorkload

// SplitMergeWorkload installs a merged accumulator aggregate into the
// workload's transactional state at epoch close.
type SplitMergeWorkload = core.SplitMergeWorkload

// AggKind names a commutative merge semantic (add, max, min, top-K).
type AggKind = splitphase.Kind

// Commutative merge semantics for CommutativeOps tables.
const (
	AggAdd  = splitphase.KindAdd
	AggMax  = splitphase.KindMax
	AggMin  = splitphase.KindMin
	AggTopK = splitphase.KindTopK
)

// Agg is one epoch's merged accumulator state for a split key, handed to
// SplitMergeWorkload.ApplyMerged.
type Agg = splitphase.Agg

// Counters is a transactional bank of keyed aggregates (sum, max, min,
// top-K) whose MergeAgg method implements the split-phase install; pair it
// with OpAdd/OpMax/OpMin/OpTopK in a workload to get a split-ready
// structure out of the box.
type Counters = txds.Counters

// CounterValue is one counter's aggregate state.
type CounterValue = txds.CounterValue

// NewCounters creates a bank of n zeroed counters.
var NewCounters = txds.NewCounters

// ShardStore is the migratable transactional state of one shard: batch range
// extraction (every range an epoch moves out of the shard, in one call) and
// key installation, in the executor's scheduling-key space.
type ShardStore = core.ShardStore

// Range is one contiguous closed interval of the scheduling-key space.
type Range = core.Range

// StoreFactory is a WorkloadFactory whose shards expose migratable state;
// ShardPerWorker under SchedAdaptive requires one.
type StoreFactory = core.StoreFactory

// ShardStats reports one shard's completions and STM counter deltas.
type ShardStats = core.ShardStats

// LatencySummary carries count/mean/p50/p95/p99/max for a latency metric
// (ExecStats.Wait and ExecStats.Service).
type LatencySummary = latency.Summary

// Future is the pending result of SubmitAsync.
type Future = core.Future

// TaskResult reports one completed task to its submitter, including the
// workload's typed Value (e.g. a lookup's hit).
type TaskResult = core.TaskResult

// SubmitTyped submits one task and returns its value as T: the one-line
// request/response path for typed workloads —
//
//	found, err := kstm.SubmitTyped[bool](ctx, ex, kstm.Task{Key: k, Op: kstm.OpLookup, Arg: k})
//
// A nil task value yields T's zero value; a non-nil value of the wrong
// dynamic type is a workload/caller type mismatch and returns an error.
func SubmitTyped[T any](ctx context.Context, ex *Executor, t Task) (T, error) {
	var zero T
	res, err := ex.Submit(ctx, t)
	if err != nil {
		return zero, err
	}
	if res.Value == nil {
		return zero, nil
	}
	v, ok := res.Value.(T)
	if !ok {
		return zero, fmt.Errorf("kstm: task value is %T, caller wants %v",
			res.Value, reflect.TypeOf((*T)(nil)).Elem())
	}
	return v, nil
}

// ExecStats is a live snapshot of executor counters.
type ExecStats = core.ExecStats

// Backpressure selects the full-queue submission policy.
type Backpressure = core.Backpressure

// Backpressure modes.
const (
	BackpressureBlock  = core.BackpressureBlock
	BackpressureReject = core.BackpressureReject
)

// Executor lifecycle and submission errors.
var (
	ErrQueueFull      = core.ErrQueueFull
	ErrNotRunning     = core.ErrNotRunning
	ErrAlreadyStarted = core.ErrAlreadyStarted
	ErrStopped        = core.ErrStopped
	// ErrDeadlineExpired is the completion error of tasks shed because their
	// SubmitFuncOrRun queue deadline expired before a worker reached them.
	ErrDeadlineExpired = core.ErrDeadlineExpired
)

// Task is a transaction parameter record.
type Task = core.Task

// Op is a task opcode.
type Op = core.Op

// Task opcodes.
const (
	OpInsert = core.OpInsert
	OpDelete = core.OpDelete
	OpLookup = core.OpLookup
	OpNoop   = core.OpNoop
)

// Commutative aggregate opcodes (counter workloads): mergeable through
// split-phase execution when the workload declares them in CommutativeOps.
const (
	OpAdd  = core.OpAdd
	OpMax  = core.OpMax
	OpMin  = core.OpMin
	OpTopK = core.OpTopK
)

// TaskSource generates a producer's task stream.
type TaskSource = core.TaskSource

// SourceFunc adapts a function to TaskSource.
type SourceFunc = core.SourceFunc

// Workload executes tasks on worker threads, returning each task's value.
type Workload = core.Workload

// WorkloadFunc adapts a function to Workload.
type WorkloadFunc = core.WorkloadFunc

// WorkloadFactory builds shard-local workloads for ShardPerWorker.
type WorkloadFactory = core.WorkloadFactory

// WorkloadFactoryFunc adapts a function to WorkloadFactory.
type WorkloadFactoryFunc = core.WorkloadFactoryFunc

// Scheduler maps transaction keys to workers.
type Scheduler = core.Scheduler

// SchedulerKind names a dispatch policy.
type SchedulerKind = core.SchedulerKind

// The paper's three dispatch policies.
const (
	SchedRoundRobin = core.SchedRoundRobin
	SchedFixed      = core.SchedFixed
	SchedAdaptive   = core.SchedAdaptive
)

// Model selects the executor architecture of Figure 1.
type Model = core.Model

// Executor models: Figure 1a (no executor) and Figure 1c (parallel).
const (
	ModelNoExecutor = core.ModelNoExecutor
	ModelParallel   = core.ModelParallel
)

// Config describes an executor pool.
type Config = core.Config

// Pool runs producers, the dispatch policy and workers.
type Pool = core.Pool

// Result reports one executor run.
type Result = core.Result

// NewPool validates a Config and returns a Pool.
var NewPool = core.NewPool

// NewScheduler constructs a dispatch policy over a key range.
var NewScheduler = core.NewScheduler

// Adaptive is the paper's adaptive scheduler, exposed concretely so callers
// can inspect the learned partition.
type Adaptive = core.Adaptive

// NewAdaptive constructs an adaptive scheduler directly.
var NewAdaptive = core.NewAdaptive

// Partition is a key-space partition (fixed or PD-estimated).
type Partition = hist.Partition

// Adaptive scheduler options.
var (
	WithThreshold    = core.WithThreshold
	WithReAdaptation = core.WithReAdaptation
)

// Key space -----------------------------------------------------------------

// MaxKey is the largest 16-bit dictionary key.
const MaxKey = dist.MaxKey

// DefaultSampleThreshold is the paper's 10,000-sample confidence threshold.
const DefaultSampleThreshold = hist.DefaultSampleThreshold

// Distribution sources for workload generation.
var (
	NewUniform            = dist.NewUniform
	NewGaussianDefault    = dist.NewGaussianDefault
	NewExponentialDefault = dist.NewExponentialDefault
)

// SplitKey splits a generated 17-bit workload value into its 16-bit
// dictionary key and its insert/delete type bit (the low bit, per §4.4).
var SplitKey = dist.Split

// Simulation ------------------------------------------------------------------

// SimParams configures the discrete-event testbed simulator.
type SimParams = sim.Params

// SimResult reports a simulated run.
type SimResult = sim.Result

// SimRun executes one simulated configuration.
var SimRun = sim.Run

// DefaultSimParams returns the calibrated cost model.
var DefaultSimParams = sim.DefaultParams
