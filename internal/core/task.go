// Package core implements the paper's primary contribution: the key-based
// transactional-memory executor (§2–§3). Producer threads generate
// transactions as parameter records; an executor dispatches each record to
// one of w worker threads by its transaction key; workers execute the
// transactions inside the STM, retrying until they commit.
//
// Three dispatch policies are provided, matching §3.2: round-robin
// (keyless), fixed equal-width key ranges, and the adaptive PD-partition
// that samples the key distribution and equalizes per-worker probability
// mass. Pool drives the two executor models of Figure 1 the paper measures:
// no executor (Figure 4's baseline) and parallel executors inlined in the
// producers (the configuration used for the paper's results).
package core

import (
	"fmt"

	"kstm/internal/stm"
)

// Op is a workload-defined opcode carried in a task. The dictionary
// workloads use OpInsert and OpDelete; Fig. 4's overhead test uses OpNoop.
type Op uint8

// Operations of the dictionary microbenchmarks.
const (
	OpInsert Op = iota
	OpDelete
	OpLookup
	OpNoop
)

// Commutative aggregate operations (the counter workloads). A workload that
// declares these split-phase-mergeable (CommutativeOps) lets the executor
// absorb them into per-worker local accumulators while their key is split;
// their STM implementations MUST return a nil value, so a caller cannot tell
// a locally-absorbed op from a transactional one.
const (
	// OpAdd adds the task's Arg — interpreted as a signed int32 delta in
	// two's complement — to the keyed aggregate's sum.
	OpAdd Op = iota + 4
	// OpMax folds Arg into the keyed aggregate's running maximum.
	OpMax
	// OpMin folds Arg into the keyed aggregate's running minimum.
	OpMin
	// OpTopK inserts Arg into the keyed aggregate's bounded top-K multiset.
	OpTopK
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	case OpNoop:
		return "noop"
	case OpAdd:
		return "add"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpTopK:
		return "topk"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Task is one transaction's parameter record. As in the paper's
// implementation (§4.1), the executor enqueues parameters, not closures:
// the worker reconstructs and runs the transaction from the record.
type Task struct {
	// Key is the transaction key used for scheduling (§3.1). It need not
	// equal the dictionary key: for the hash-table workload it is the
	// hash function's output.
	Key uint64
	// Op selects the operation.
	Op Op
	// Arg is the operation argument — for dictionaries, the 16-bit
	// search key.
	Arg uint32
}

// TaskSource generates a producer's task stream. Implementations need not
// be safe for concurrent use; every producer owns a private source.
type TaskSource interface {
	Next() Task
}

// SourceFunc adapts a function to TaskSource.
type SourceFunc func() Task

// Next implements TaskSource.
func (f SourceFunc) Next() Task { return f() }

// Workload executes tasks on a worker's STM thread. Execute must retry
// internally until the transaction commits (the IntSet operations already
// behave this way) and return only hard errors. The first return is the
// operation's value — a lookup's hit/value, an insert's "was absent" bit —
// carried back to the submitter in TaskResult.Value, so read operations
// need no side channel. Value-less workloads return nil.
type Workload interface {
	Execute(th *stm.Thread, t Task) (any, error)
}

// WorkloadFunc adapts a function to Workload.
type WorkloadFunc func(th *stm.Thread, t Task) (any, error)

// Execute implements Workload.
func (f WorkloadFunc) Execute(th *stm.Thread, t Task) (any, error) { return f(th, t) }

// WorkloadFactory builds shard-local workloads for sharded executors: under
// ShardPerWorker the executor calls NewShard once per worker, and the
// returned workload — together with the transactional state it creates —
// is executed only by that worker, inside that worker's private STM
// instance. NewShard is called before the workers start; it need not be
// safe for concurrent use.
type WorkloadFactory interface {
	NewShard(worker int) Workload
}

// WorkloadFactoryFunc adapts a function to WorkloadFactory.
type WorkloadFactoryFunc func(worker int) Workload

// NewShard implements WorkloadFactory.
func (f WorkloadFactoryFunc) NewShard(worker int) Workload { return f(worker) }
