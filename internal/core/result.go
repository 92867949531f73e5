package core

import (
	"fmt"
	"strings"
	"time"

	"kstm/internal/queue"
	"kstm/internal/stm"
)

// Result reports one executor run: the cumulative throughput the paper's
// test driver collects from the workers (§4.1), plus the supporting
// statistics (§4.4's contention data, per-worker load for the balance
// analysis, and queue behaviour for the Figure 4 overhead discussion).
type Result struct {
	Model     Model
	Scheduler string
	QueueKind queue.Kind
	Workers   int
	Producers int
	WorkSteal bool

	Elapsed   time.Duration
	Completed uint64   // transactions executed to commit
	Produced  uint64   // tasks producers handed to a worker queue (Figure 1a: generated)
	PerWorker []uint64 // per-worker completion counts

	EmptyPolls uint64 // worker polls that found an empty queue
	Steals     uint64 // successful work-steal operations

	STM stm.StatsSnapshot // STM counter deltas over the run
}

// Throughput returns completed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// LoadImbalance returns max(per-worker completed) / ideal share; 1.0 is
// perfect balance. It is the paper's §4.4 load-balance measure.
func (r Result) LoadImbalance() float64 {
	if r.Completed == 0 || len(r.PerWorker) == 0 {
		return 1
	}
	ideal := float64(r.Completed) / float64(len(r.PerWorker))
	worst := 0.0
	for _, n := range r.PerWorker {
		if v := float64(n) / ideal; v > worst {
			worst = v
		}
	}
	return worst
}

// ContentionRate returns STM conflicts per committed transaction over the
// run — the §4.4 "frequency of contentions".
func (r Result) ContentionRate() float64 { return r.STM.ContentionRate() }

// String renders a one-line summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s w=%d p=%d: %d txn in %v (%.0f txn/s, imbalance %.2f, contention %.4f)",
		r.Model, r.Scheduler, r.Workers, r.Producers,
		r.Completed, r.Elapsed.Round(time.Millisecond),
		r.Throughput(), r.LoadImbalance(), r.ContentionRate())
	return b.String()
}
