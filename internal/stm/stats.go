package stm

import (
	"fmt"
	"sync/atomic"
)

// Stats holds the STM's global counters, striped so that workers do not
// share a cache line: a thread counts its events privately (Thread.pending)
// and folds them, once per finished attempt, into the stripe its ID selects.
// Reading a snapshot sums the stripes; it is racy-but-monotone, which is all
// throughput reporting needs.
type Stats struct {
	stripes [statStripes]statStripe
}

// statStripes is a power of two at least the worker count of any executor
// the repo runs. Thread IDs are sequential per STM, so a run's workers land
// on distinct stripes; threads made later (migration makes some per epoch)
// share one with a worker and stay correct, as folds are atomic adds.
const statStripes = 16

// statStripe is one cache-line-padded set of counters.
//
//kstmvet:padalign
type statStripe struct {
	begins          atomic.Uint64
	commits         atomic.Uint64
	selfAborts      atomic.Uint64
	enemyAborts     atomic.Uint64
	retries         atomic.Uint64
	conflicts       atomic.Uint64
	validationFails atomic.Uint64
	reads           atomic.Uint64
	writes          atomic.Uint64
	_               [56]byte
}

// fold adds thread id's pending counts to its stripe and zeroes them.
func (s *Stats) fold(id int64, p *StatsSnapshot) {
	st := &s.stripes[id&(statStripes-1)]
	add := func(c *atomic.Uint64, n uint64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(&st.begins, p.Begins)
	add(&st.commits, p.Commits)
	add(&st.selfAborts, p.SelfAborts)
	add(&st.enemyAborts, p.EnemyAborts)
	add(&st.retries, p.Retries)
	add(&st.conflicts, p.Conflicts)
	add(&st.validationFails, p.ValidationFails)
	add(&st.reads, p.Reads)
	add(&st.writes, p.Writes)
	*p = StatsSnapshot{}
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Begins          uint64 // transactions started (including retries)
	Commits         uint64 // successful commits
	SelfAborts      uint64 // aborts initiated by the owning thread
	EnemyAborts     uint64 // aborts initiated by competitors
	Retries         uint64 // re-executions of a task after an abort
	Conflicts       uint64 // contention-manager invocations
	ValidationFails uint64 // aborts due to read-set invalidation
	Reads           uint64 // object opens for reading
	Writes          uint64 // object opens for writing
}

func (s *Stats) snapshot() StatsSnapshot {
	var out StatsSnapshot
	for i := range s.stripes {
		st := &s.stripes[i]
		out = out.Add(StatsSnapshot{
			Begins:          st.begins.Load(),
			Commits:         st.commits.Load(),
			SelfAborts:      st.selfAborts.Load(),
			EnemyAborts:     st.enemyAborts.Load(),
			Retries:         st.retries.Load(),
			Conflicts:       st.conflicts.Load(),
			ValidationFails: st.validationFails.Load(),
			Reads:           st.reads.Load(),
			Writes:          st.writes.Load(),
		})
	}
	return out
}

func (s *Stats) reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.begins.Store(0)
		st.commits.Store(0)
		st.selfAborts.Store(0)
		st.enemyAborts.Store(0)
		st.retries.Store(0)
		st.conflicts.Store(0)
		st.validationFails.Store(0)
		st.reads.Store(0)
		st.writes.Store(0)
	}
}

// Aborts returns total aborts from both sources.
func (s StatsSnapshot) Aborts() uint64 { return s.SelfAborts + s.EnemyAborts }

// ContentionRate returns conflicts per committed transaction — the paper's
// "frequency of contentions" metric (§4.4). Zero commits yields zero.
func (s StatsSnapshot) ContentionRate() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Conflicts) / float64(s.Commits)
}

// String renders the snapshot compactly.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("begins=%d commits=%d aborts=%d (self=%d enemy=%d) retries=%d conflicts=%d validationFails=%d reads=%d writes=%d",
		s.Begins, s.Commits, s.Aborts(), s.SelfAborts, s.EnemyAborts,
		s.Retries, s.Conflicts, s.ValidationFails, s.Reads, s.Writes)
}

// Add returns the field-wise sum s + other; the sharded executor uses it to
// aggregate per-shard STM deltas into one run-wide snapshot.
func (s StatsSnapshot) Add(other StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Begins:          s.Begins + other.Begins,
		Commits:         s.Commits + other.Commits,
		SelfAborts:      s.SelfAborts + other.SelfAborts,
		EnemyAborts:     s.EnemyAborts + other.EnemyAborts,
		Retries:         s.Retries + other.Retries,
		Conflicts:       s.Conflicts + other.Conflicts,
		ValidationFails: s.ValidationFails + other.ValidationFails,
		Reads:           s.Reads + other.Reads,
		Writes:          s.Writes + other.Writes,
	}
}

// Sub returns the counter deltas s - earlier; the harness uses it to scope
// statistics to a measurement window.
func (s StatsSnapshot) Sub(earlier StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Begins:          s.Begins - earlier.Begins,
		Commits:         s.Commits - earlier.Commits,
		SelfAborts:      s.SelfAborts - earlier.SelfAborts,
		EnemyAborts:     s.EnemyAborts - earlier.EnemyAborts,
		Retries:         s.Retries - earlier.Retries,
		Conflicts:       s.Conflicts - earlier.Conflicts,
		ValidationFails: s.ValidationFails - earlier.ValidationFails,
		Reads:           s.Reads - earlier.Reads,
		Writes:          s.Writes - earlier.Writes,
	}
}
