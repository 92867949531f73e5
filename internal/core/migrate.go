package core

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"kstm/internal/hist"
	"kstm/internal/stm"
)

// MigrationMode names the shard-state migration an executor runs; the one
// mode only asserts what ShardPerWorker under SchedAdaptive always does.
type MigrationMode string

const (
	// MigrateOnRepartition runs the epoch-fenced hand-off protocol on every
	// partition change: dispatch for the moved ranges is fenced (new tasks
	// park on per-range hold queues while untouched ranges keep executing),
	// in-flight tasks drain against the old owner, the range's keys move
	// shard-to-shard through the ShardStore API, and the held tasks are
	// released to the new owner — preserving read-your-writes across any
	// adaptation.
	MigrateOnRepartition MigrationMode = "onrepartition"
)

// WithMigration asserts that the executor migrates shard state: NewExecutor
// rejects it unless the configuration migrates anyway (ShardPerWorker, the
// adaptive scheduler and a StoreFactory). It changes nothing else.
func WithMigration(m MigrationMode) Option {
	return func(c *execConfig) { c.migration = m }
}

// ShardStore is the migratable transactional state of one shard. Ranges are
// in the executor's scheduling-key space, the space the dispatch partition
// cuts. Both methods run on a migrator-owned STM thread of the shard's
// instance, concurrently with the shard's worker — but the executor
// guarantees no task for a moving range executes while its state is in
// transit.
type ShardStore interface {
	// ExtractRanges removes every key whose scheduling key falls in one of
	// the disjoint closed ranges, which come in ascending order, and
	// returns them per range (out[i] belongs to ranges[i]); on error, out
	// holds what was already removed. The migrator calls it once per old
	// owner per epoch, so a store whose ranges share structure (the hash
	// table's dictionary-key view) visits it once inside the fence window.
	// The store must not keep ranges; the migrator is done with out before
	// the store's next call, so a store may reuse it.
	ExtractRanges(th *stm.Thread, ranges []Range) ([][]uint32, error)
	// InstallKeys inserts the given keys into the shard.
	InstallKeys(th *stm.Thread, keys []uint32) error
}

// StoreFactory is a WorkloadFactory whose shards expose migratable state.
// Store(worker) is called after NewShard(worker) and must return the store
// backing that worker's shard; NewExecutor rejects a nil one.
type StoreFactory interface {
	WorkloadFactory
	Store(worker int) ShardStore
}

// Range is one contiguous closed interval of the executor's scheduling-key
// space.
type Range struct{ Lo, Hi uint64 }

// MigrationStats reports the epoch-fenced hand-off protocol's work.
// All counters are monotone over an executor's lifetime.
type MigrationStats struct {
	// Epochs counts completed migrations (one per re-partition that moved
	// at least one range).
	Epochs uint64
	// KeysMoved counts keys extracted from an old owner and installed into
	// a new one, summed over all epochs and ranges.
	KeysMoved uint64
	// PauseNs sums, over epochs, the fence duration: from fencing the moved
	// ranges to releasing their held tasks. Only tasks for moved ranges
	// pause; untouched ranges execute throughout.
	PauseNs uint64
}

// movedRange is one contiguous scheduling-key interval whose owner differs
// between two partitions.
type movedRange struct {
	lo, hi   uint64
	from, to int
}

// diffPartitions returns the key ranges whose owner changes from old to new,
// merged into maximal contiguous runs with identical (from, to) owners. Both
// partitions must cover the same [min, max] (they come from one scheduler).
func diffPartitions(oldP, newP *hist.Partition) []movedRange {
	lo, _ := oldP.RangeOf(0)
	_, max := oldP.RangeOf(oldP.Workers() - 1)
	// Elementary intervals: between any two consecutive cut points (interior
	// bounds of either partition) both Pick functions are constant.
	cuts := append(oldP.Bounds(), newP.Bounds()...)
	slices.Sort(cuts)
	var out []movedRange
	emit := func(lo, hi uint64) {
		from, to := oldP.Pick(lo), newP.Pick(lo)
		if from == to {
			return
		}
		if n := len(out); n > 0 && out[n-1].hi+1 == lo && out[n-1].from == from && out[n-1].to == to {
			out[n-1].hi = hi
			return
		}
		out = append(out, movedRange{lo: lo, hi: hi, from: from, to: to})
	}
	cur := lo
	for _, b := range cuts {
		if b < cur || b >= max {
			continue // duplicate cut, or the outer edge
		}
		emit(cur, b)
		cur = b + 1
	}
	emit(cur, max)
	return out
}

// fence is one epoch's dispatch barrier: tasks whose key falls in a moved
// range park on the range's hold queue instead of being enqueued, until the
// migrator releases them to the new owner.
type fence struct {
	ranges []movedRange
	// min/max are the partition's key bounds: out-of-range keys clamp onto
	// the edge ranges, mirroring Partition.Pick — a stray key must fence
	// with the edge range it dispatches into, not slip past it.
	min, max uint64
	held     []holdQueue // one per moved range; closed once released
}

// rangeOf returns the index of the moved range containing key, or -1.
func (f *fence) rangeOf(key uint64) int {
	if key < f.min {
		key = f.min
	}
	if key > f.max {
		key = f.max
	}
	for i, r := range f.ranges {
		if key >= r.lo && key <= r.hi {
			return i
		}
	}
	return -1
}

// hold returns the hold queue of the moved range containing key, or nil.
func (f *fence) hold(key uint64) *holdQueue {
	i := f.rangeOf(key)
	if i < 0 {
		return nil
	}
	return &f.held[i]
}

// migrator owns the executor's epoch-fenced shard-state hand-off. It is
// present (non-nil on the Executor) exactly under ShardPerWorker with
// SchedAdaptive.
type migrator struct {
	epoch
	stores []ShardStore
	ranges []Range // handoff's reused argument: epochs never overlap
	fence  atomic.Pointer[fence]
	// active serializes migrations: a re-partition arriving while one is in
	// flight is skipped (the scheduler re-samples and retries next window).
	active atomic.Bool

	epochs    atomic.Uint64
	keysMoved atomic.Uint64
	pauseNs   atomic.Uint64
}

// keyStableRouting enforces what ShardPerWorker means: a key's tasks reach
// the shard that holds its state. SchedFixed never moves a range;
// SchedAdaptive does, so it gets the migrator (returned; nil under
// SchedFixed). Round-robin ignores the key.
func keyStableRouting(cfg *execConfig) (*migrator, error) {
	switch {
	case cfg.schedKind == SchedFixed && cfg.migration != "":
		return nil, fmt.Errorf("core: WithMigration requires SchedAdaptive: %q never re-partitions", cfg.schedKind)
	case cfg.schedKind == SchedFixed:
		return nil, nil
	case cfg.schedKind != SchedAdaptive:
		return nil, fmt.Errorf("core: ShardPerWorker requires key-stable routing (SchedFixed or SchedAdaptive): %q ignores the key", cfg.schedKind)
	}
	sf, ok := cfg.factory.(StoreFactory)
	if !ok {
		return nil, fmt.Errorf("core: ShardPerWorker with SchedAdaptive requires a StoreFactory: a re-partition moves shard state")
	}
	m := &migrator{stores: make([]ShardStore, cfg.workers)}
	for i := range m.stores {
		if m.stores[i] = sf.Store(i); m.stores[i] == nil {
			return nil, fmt.Errorf("core: ShardPerWorker with SchedAdaptive: StoreFactory returned a nil store for shard %d", i)
		}
	}
	cfg.scheduler.(*Adaptive).setRepartitionGate(m.onRepartition)
	return m, nil
}

// onRepartition is the adaptive scheduler's gate: called after a new
// partition is computed, before it is installed. It fences the moved ranges
// and returns the commit hook that starts the background hand-off once the
// scheduler has switched. Returning ok=false skips this re-partition.
//
// It runs on a submitting goroutine that already holds the read side of the
// epoch gate (dispatch → pick → Adaptive.Pick → maybeAdapt), so it must not
// take the write side: the fence is installed with a plain atomic store, and
// migrate's run quiesces straddling dispatchers before it enqueues the drain
// barriers.
func (m *migrator) onRepartition(oldP, newP *hist.Partition) (commit func(), ok bool) {
	if !m.active.CompareAndSwap(false, true) {
		return nil, false // hand-off still in flight; keep the old partition
	}
	ranges := diffPartitions(oldP, newP)
	if len(ranges) == 0 {
		m.active.Store(false)
		return func() {}, true // identical ownership: swap without ceremony
	}
	lo, _ := oldP.RangeOf(0)
	_, hi := oldP.RangeOf(oldP.Workers() - 1)
	f := &fence{ranges: ranges, min: lo, max: hi, held: make([]holdQueue, len(ranges))}
	m.fence.Store(f)
	start := time.Now()
	return func() {
		// Under startMu, against markStopped: halt joins the hand-off, or,
		// stopped already, settles the fence's held tasks in its sweep.
		m.e.startMu.Lock()
		defer m.e.startMu.Unlock()
		if !m.e.stopping() {
			m.e.spawn(func() { m.migrate(f, start) })
		}
	}, true
}

// migrate runs the hand-off for one epoch (DESIGN.md §4.1) on a goroutine
// halt joins; workers keep executing unmoved ranges throughout. The fence is
// already up, so the epoch's capture step is a bare quiesce: a dispatcher
// that loaded a nil fence just before the install may still be routing a
// moved-range task to its old owner, and only once those stragglers are out
// is a drain barrier on the old owners meaningful. Stop mid-epoch leaves the
// parked tasks on the fence for halt's sweep to settle as ErrStopped.
func (m *migrator) migrate(f *fence, start time.Time) {
	defer m.active.Store(false)
	// Fresh STM threads per hand-off: a thread kept across epochs keeps the
	// thread id after the shard worker's, and stm folds their statistics into
	// neighbouring stripes — false sharing the per-bucket extraction scan
	// pays for (measured: inproc-migrate lat_p99_us +7..12 %, every pair).
	// Fresh ids walk the stripes instead.
	m.threads = nil
	groups := groupByFrom(f.ranges)
	oldOwners := make([]int, len(groups))
	for i, g := range groups {
		oldOwners[i] = g.from
	}
	var moved uint64
	m.run(nil, oldOwners,
		func() { moved = m.handoff(groups) },
		func([][]envelope) {
			// Publish the epoch's counters before any held task can run, so
			// a caller that waited for one (or whose Drain returned) sees
			// them. run reaches this step only when no stop cut it short.
			m.keysMoved.Add(moved)
			m.pauseNs.Add(uint64(time.Since(start)))
			m.epochs.Add(1)
			// Unpark: every hold queue goes to its range's new owner, then
			// the fence clears — the new epoch is live.
			for i := range f.held {
				m.release(f.ranges[i].to, f.held[i].take(true))
			}
			m.fence.Store(nil)
		})
}

// handoff extracts each moved range from its old shard and installs it into
// the new one, on migrator-owned STM threads, and returns the number of keys
// moved. The fence guarantees no task for these ranges is executing, so the
// only concurrency is with unmoved-range transactions (handled by the STM).
// The ranges come grouped by their old owner, so each old shard is visited by
// one extraction call per epoch, not one per range.
func (m *migrator) handoff(groups []fromGroup) (moved uint64) {
	for _, g := range groups {
		// Re-check stop at each shard boundary so a Stop() mid-hand-off stops
		// mutating shard state promptly (ranges already moved stay moved).
		if m.e.stopping() {
			return moved
		}
		m.ranges = m.ranges[:0]
		for _, r := range g.ranges {
			m.ranges = append(m.ranges, Range{Lo: r.lo, Hi: r.hi})
		}
		keysPer, err := m.stores[g.from].ExtractRanges(m.thread(g.from), m.ranges)
		if err != nil {
			// Whatever the extraction removed before failing goes back into
			// the old shard: no key is lost, but none of this group's keys
			// reach the new owners (see restore).
			var all []uint32
			for _, keys := range keysPer {
				all = append(all, keys...)
			}
			m.restore(g.from, all,
				fmt.Errorf("core: migrate extract %d ranges from shard %d: %w", len(g.ranges), g.from, err))
			continue
		}
		for i, keys := range keysPer {
			moved += m.installRange(g.ranges[i], keys)
		}
	}
	return moved
}

// installRange hands one extracted range's keys to their new owner and
// reports how many moved, restoring them to the old one if the install fails.
func (m *migrator) installRange(r movedRange, keys []uint32) uint64 {
	if len(keys) == 0 {
		return 0
	}
	if err := m.stores[r.to].InstallKeys(m.thread(r.to), keys); err != nil {
		m.restore(r.from, keys,
			fmt.Errorf("core: migrate install [%d,%d] into shard %d: %w", r.lo, r.hi, r.to, err))
		return 0
	}
	return uint64(len(keys))
}

// fromGroup is one old owner's share of an epoch: the moved ranges leaving
// that shard, in partition order.
type fromGroup struct {
	from   int
	ranges []movedRange
}

// groupByFrom buckets moved ranges by their old owner, preserving first-seen
// shard order and per-shard range order.
func groupByFrom(ranges []movedRange) []fromGroup {
	var out []fromGroup
	idx := make(map[int]int)
	for _, r := range ranges {
		i, ok := idx[r.from]
		if !ok {
			i = len(out)
			idx[r.from] = i
			out = append(out, fromGroup{from: r.from})
		}
		out[i].ranges = append(out[i].ranges, r)
	}
	return out
}

// restore puts a failed range's in-hand keys back into the shard they were
// extracted from (best-effort — InstallKeys retries transactionally, so a
// second failure means the shard's STM itself is broken) and records the
// range's error. The partition has already handed the range to its new
// owner, so the restored keys stay stored but unread until a later
// re-partition returns the range to their shard.
func (m *migrator) restore(shard int, keys []uint32, cause error) {
	if len(keys) > 0 {
		if rerr := m.stores[shard].InstallKeys(m.thread(shard), keys); rerr != nil {
			cause = fmt.Errorf("%w (restore of %d keys into shard %d also failed: %v)", cause, len(keys), shard, rerr)
		}
	}
	m.fail(cause)
}

// stats snapshots the migration counters.
func (m *migrator) stats() MigrationStats {
	return MigrationStats{
		Epochs:    m.epochs.Load(),
		KeysMoved: m.keysMoved.Load(),
		PauseNs:   m.pauseNs.Load(),
	}
}
