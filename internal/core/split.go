package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"kstm/internal/splitphase"
	"kstm/internal/stm"
)

// Split-phase execution for contended keys (DESIGN.md §9) — Doppel-style
// phase reconciliation grafted onto the key-routed executor. Key routing
// removes cross-key STM conflicts but concentrates a hot key's entire load
// on one worker queue: the serialization class partitioning cannot dilute.
// Split phase breaks it for commutative operations:
//
//   - a contention detector (per-worker reservoirs, splitphase.Detector)
//     estimates per-key traffic shares each epoch and promotes keys above a
//     threshold into the split table (demoting them when the share decays);
//   - while a key is split, its commutative ops (the workload's
//     CommutativeOps table) are scattered round-robin across ALL workers and
//     absorbed into cache-line-padded per-worker accumulators
//     (splitphase.Accum) — zero STM traffic, no owner-queue serialization;
//   - non-commutative ops on a split key park on the key's hold queue;
//   - an epoch-merge coordinator runs the shared epoch skeleton (epoch.go,
//     the mechanism behind §4.1's migration too) — capture the hold queues,
//     FIFO drain barriers per worker queue — to fold the accumulators into
//     the owning shard's store (SplitMergeWorkload) and then release the
//     parked tasks to the owner, ahead of any post-release traffic, so a
//     parked reader observes every commutative op that preceded it and never
//     a partial merge. The ordering argument is epoch.go's; tasks parked
//     after a capture simply wait one more epoch.
//
// WithSplitPhase is incompatible with WithMigration (the reason is stated on
// the epoch type).

// CommutativeWorkload is a Workload whose ops can be split-phase-absorbed:
// CommutativeOps maps each mergeable opcode to its splitphase.Kind. Ops
// absent from the map are non-commutative (they park while their key is
// split). The mapped ops' Execute implementations must be side-effect-
// equivalent to the accumulator fold (e.g. OpAdd adds int32(Arg) to the
// keyed sum) and must return a nil value, so callers cannot distinguish a
// locally-absorbed op from a transactional one. CommutativeOps is read once
// at construction.
type CommutativeWorkload interface {
	Workload
	CommutativeOps() map[Op]splitphase.Kind
}

// SplitMergeWorkload is a Workload whose keyed state accepts folded
// split-phase aggregates: ApplyMerged installs agg into the state behind
// scheduling key, transactionally, on a coordinator-owned thread of the
// owning shard's STM. It runs concurrently with the shard's worker (which
// the coordinator guarantees is not executing ops for this key) and must be
// all-or-nothing: on error the coordinator restores agg into the
// accumulator and retries next epoch.
type SplitMergeWorkload interface {
	Workload
	ApplyMerged(th *stm.Thread, key uint64, agg splitphase.Agg) error
}

// SplitStats reports the split-phase subsystem's work. All counters except
// Keys (a gauge) are monotone over an executor's lifetime.
type SplitStats struct {
	// Keys is the current split-table size (promoted, not yet demoted).
	Keys uint64
	// Promoted/Demoted count table transitions.
	Promoted uint64
	Demoted  uint64
	// MergedEpochs counts completed merge epochs (ticks that folded
	// accumulators and/or released parked tasks; quiescent ticks are free).
	MergedEpochs uint64
	// ParkedTasks counts tasks that waited on a split key's hold queue.
	ParkedTasks uint64
	// MergeNs sums merge-epoch duration: capture → barriers → fold+install →
	// release. Only split-key parked tasks pause; all other traffic executes
	// throughout.
	MergeNs uint64
}

// splitConfig is the resolved WithSplitPhase option set.
type splitConfig struct {
	epoch        time.Duration
	coalesce     time.Duration
	window       uint64
	reservoir    int
	promoteShare float64
	demoteShare  float64
	demoteGrace  int
	maxKeys      int
	seed         uint64
	static       []uint64
}

// SplitOption tunes split-phase execution.
type SplitOption func(*splitConfig)

// SplitEpoch sets the maximum merge interval: a dirty accumulator or a
// parked task waits at most about this long for a merge (default 1ms).
func SplitEpoch(d time.Duration) SplitOption {
	return func(c *splitConfig) { c.epoch = d }
}

// SplitCoalesce sets the delay between a park-triggered wake and the merge,
// letting a burst of parked readers share one epoch (default 100µs; 0
// merges immediately on wake).
func SplitCoalesce(d time.Duration) SplitOption {
	return func(c *splitConfig) { c.coalesce = d }
}

// SplitWindow sets how many detector samples accumulate before a fold makes
// promote/demote decisions (default 4096).
func SplitWindow(n uint64) SplitOption {
	return func(c *splitConfig) { c.window = n }
}

// SplitPromoteShare sets the traffic share at which a key is promoted into
// split phase (default 0.05 — a key carrying ≥5% of sampled traffic).
func SplitPromoteShare(f float64) SplitOption {
	return func(c *splitConfig) { c.promoteShare = f }
}

// SplitDemoteShare sets the share below which a split key is a demotion
// candidate, and grace the number of consecutive folds it must stay below
// before it actually demotes (defaults 0.02 and 3; hysteresis against
// promote/demote flapping at the threshold).
func SplitDemoteShare(f float64, grace int) SplitOption {
	return func(c *splitConfig) { c.demoteShare, c.demoteGrace = f, grace }
}

// SplitMaxKeys caps the split table (default 16): accumulators cost
// workers × 2 cache lines per key, and merge epochs walk every entry.
func SplitMaxKeys(n int) SplitOption {
	return func(c *splitConfig) { c.maxKeys = n }
}

// SplitKeys pre-splits the given scheduling keys at construction. Static
// keys never demote; the detector still promotes others around them. Tests
// and workloads with known-hot keys use this to skip the detection window.
func SplitKeys(keys ...uint64) SplitOption {
	return func(c *splitConfig) { c.static = append(c.static, keys...) }
}

// WithSplitPhase enables split-phase execution for contended keys. Every
// shard workload must implement CommutativeWorkload and SplitMergeWorkload;
// incompatible with WithMigration(MigrateOnRepartition).
func WithSplitPhase(opts ...SplitOption) Option {
	return func(c *execConfig) {
		sc := defaultSplitConfig()
		for _, o := range opts {
			o(&sc)
		}
		c.split = &sc
	}
}

func defaultSplitConfig() splitConfig {
	return splitConfig{
		epoch:        time.Millisecond,
		coalesce:     100 * time.Microsecond,
		window:       4096,
		reservoir:    splitphase.DefaultReservoir,
		promoteShare: 0.05,
		demoteShare:  0.02,
		demoteGrace:  3,
		maxKeys:      16,
		seed:         1,
	}
}

// splitKey is one split-table entry: the key's per-worker accumulators and
// its hold queue for parked (non-commutative, or demote-window) tasks.
type splitKey struct {
	key uint64
	acc *splitphase.Accum
	// static keys (SplitKeys) never demote.
	static bool
	// demoting: the key is leaving the table this epoch; ALL its ops park
	// until the final merge lands and the coordinator releases them to the
	// owner — removing the commutative/transactional ambiguity a half-
	// demoted key would have.
	demoting atomic.Bool
	// settled: at least one merge epoch has completed since promotion. Once
	// the first epoch's barriers have drained the queues, the only
	// non-commutative split-key envelopes a worker can dequeue are ones the
	// coordinator itself released after installing the merge — so the worker
	// executes them; before that, they are pre-promotion stragglers and park.
	settled atomic.Bool
	// rr scatters commutative ops round-robin across worker queues.
	rr atomic.Uint32
	// hold parks the key's non-commutative (or demote-window) tasks. It is
	// never closed: the key stays split across epochs, so tasks parking after
	// a capture form the next generation. Dispatch parks under the depth
	// bound; a worker re-parking a dequeued straggler parks unbounded — the
	// envelope is already consumed, so dropping it would lose an accepted
	// task.
	hold holdQueue
}

// splitTable is the immutable published table: entries sorted by key for
// binary-search lookups on the dispatch and worker hot paths. Replaced
// whole (under the write gate) on promotion and demotion.
type splitTable struct {
	keys []*splitKey
}

func (t *splitTable) lookup(key uint64) *splitKey {
	ks := t.keys
	lo, hi := 0, len(ks)
	for lo < hi {
		mid := (lo + hi) / 2
		if ks[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ks) && ks[lo].key == key {
		return ks[lo]
	}
	return nil
}

// splitRunner owns the executor's split-phase state: detector, split table,
// and the epoch-merge coordinator goroutine. Present (non-nil on the
// Executor) only under WithSplitPhase.
type splitRunner struct {
	epoch
	cfg splitConfig
	det *splitphase.Detector
	// kinds is CommutativeOps resolved into a dense opcode table.
	kinds [256]splitphase.Kind
	// merge holds each shard's SplitMergeWorkload face (validated at
	// construction, cached to skip the per-merge assertion).
	merge []SplitMergeWorkload

	// table is read by dispatch under the epoch's read gate, so a capture or
	// a table swap (write side) never interleaves with a half-routed task.
	table atomic.Pointer[splitTable]
	// wake nudges the coordinator when a task parks (capacity 1; a full
	// channel means a merge is already pending).
	wake chan struct{}

	// started records that Start launched the coordinator; done is closed
	// when it exits. halt waits on done (only if started — a never-started
	// executor would wait forever) before the final accumulator flush so
	// the two never install merges concurrently.
	started atomic.Bool
	done    chan struct{}
	// idle is the coordinator's deep-idle flag: set (by the coordinator)
	// after splitIdleTicks consecutive quiescent epochs, at which point the
	// epoch ticker stops and the coordinator blocks on wake alone. Workers
	// clear it with a CAS-guarded nudge (nudgeIdle) on the first sample or
	// absorb that arrives — so a quiescent executor costs zero coordinator
	// wakeups, and resuming traffic pays one atomic load per task while
	// active.
	idle atomic.Bool

	// low counts consecutive below-demote-share folds per split key, and
	// all lists every worker queue for the epoch drain (commutative ops
	// scatter to all of them). Coordinator-only, built on first use.
	low map[uint64]int
	all []int

	promoted     atomic.Uint64
	demoted      atomic.Uint64
	mergedEpochs atomic.Uint64
	parkedTasks  atomic.Uint64
	mergeNs      atomic.Uint64
}

// newSplitRunner validates the configuration and workloads and builds the
// runner (coordinator started by Executor.Start).
func newSplitRunner(cfg *execConfig, shards []shardState) (*splitRunner, error) {
	sc := *cfg.split
	if sc.epoch <= 0 {
		return nil, fmt.Errorf("core: SplitEpoch %v, want > 0", sc.epoch)
	}
	if sc.coalesce < 0 {
		return nil, fmt.Errorf("core: SplitCoalesce %v, want >= 0", sc.coalesce)
	}
	if sc.window == 0 {
		return nil, fmt.Errorf("core: SplitWindow 0, want > 0")
	}
	if sc.promoteShare <= 0 || sc.promoteShare > 1 {
		return nil, fmt.Errorf("core: SplitPromoteShare %v, want in (0,1]", sc.promoteShare)
	}
	if sc.demoteShare < 0 || sc.demoteShare >= sc.promoteShare {
		return nil, fmt.Errorf("core: SplitDemoteShare %v, want in [0, promote share %v)", sc.demoteShare, sc.promoteShare)
	}
	if sc.demoteGrace < 1 {
		return nil, fmt.Errorf("core: SplitDemoteShare grace %d, want >= 1", sc.demoteGrace)
	}
	if sc.maxKeys < 1 {
		return nil, fmt.Errorf("core: SplitMaxKeys %d, want >= 1", sc.maxKeys)
	}
	if len(sc.static) > sc.maxKeys {
		return nil, fmt.Errorf("core: SplitKeys lists %d keys, more than SplitMaxKeys %d", len(sc.static), sc.maxKeys)
	}
	s := &splitRunner{
		cfg:   sc,
		det:   splitphase.NewDetector(cfg.workers, sc.reservoir, sc.seed),
		merge: make([]SplitMergeWorkload, len(shards)),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	var kinds map[Op]splitphase.Kind
	for i := range shards {
		cw, ok := shards[i].workload.(CommutativeWorkload)
		if !ok {
			return nil, fmt.Errorf("core: WithSplitPhase requires every shard workload to implement CommutativeWorkload (shard %d: %T)", i, shards[i].workload)
		}
		mw, ok := shards[i].workload.(SplitMergeWorkload)
		if !ok {
			return nil, fmt.Errorf("core: WithSplitPhase requires every shard workload to implement SplitMergeWorkload (shard %d: %T)", i, shards[i].workload)
		}
		s.merge[i] = mw
		if kinds == nil {
			kinds = cw.CommutativeOps()
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("core: WithSplitPhase: the workload's CommutativeOps table is empty — nothing to split")
	}
	for op, k := range kinds {
		if k == splitphase.KindNone || k > splitphase.KindTopK {
			return nil, fmt.Errorf("core: CommutativeOps maps %v to invalid kind %v", op, k)
		}
		s.kinds[op] = k
	}
	tbl := &splitTable{}
	seen := make(map[uint64]bool)
	for _, k := range sc.static {
		if seen[k] {
			continue
		}
		seen[k] = true
		tbl.keys = append(tbl.keys, &splitKey{
			key:    k,
			acc:    splitphase.NewAccum(cfg.workers),
			static: true,
		})
	}
	sort.Slice(tbl.keys, func(a, b int) bool { return tbl.keys[a].key < tbl.keys[b].key })
	s.table.Store(tbl)
	s.promoted.Add(uint64(len(tbl.keys)))
	return s, nil
}

func (s *splitRunner) lookup(key uint64) *splitKey {
	return s.table.Load().lookup(key)
}

// requestMerge nudges the coordinator; non-blocking, collapses bursts.
func (s *splitRunner) requestMerge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// nudgeIdle wakes a deep-idle coordinator. The common case (coordinator
// ticking, or already nudged) is one atomic load; the CAS makes the nudge
// once-per-idle-period. Paired with the coordinator's store-then-recheck in
// loop(): either the worker's Apply/Sample is visible to the recheck, or
// the worker sees the idle flag and nudges — dirt can never strand.
//
//kstmvet:hotpath
func (s *splitRunner) nudgeIdle() {
	if s.idle.Load() && s.idle.CompareAndSwap(true, false) {
		s.requestMerge()
	}
}

// splitAction is the worker-side routing decision for a dequeued envelope.
type splitAction int

const (
	// splitActExec: not a split key (or a coordinator-released task whose
	// merge has landed) — execute transactionally.
	splitActExec splitAction = iota
	// splitActPark: hold until the next epoch merge.
	splitActPark
	// splitActLocal: absorb into the worker's local accumulator slot.
	splitActLocal
)

// route classifies a dequeued task for worker i and feeds the detector.
// Every queue-resident non-commutative envelope for a split key is either a
// pre-promotion straggler (settled false: it was enqueued before the key's
// first merge epoch, whose barriers have not yet passed it — park it) or a
// coordinator release (settled true: the merge is installed — run it).
func (s *splitRunner) route(worker int, t Task) (splitAction, *splitKey, splitphase.Kind) {
	sk := s.lookup(t.Key)
	if sk == nil {
		s.det.Sample(worker, t.Key)
		s.nudgeIdle() // new traffic must restart detector folding
		return splitActExec, nil, splitphase.KindNone
	}
	if sk.demoting.Load() {
		return splitActPark, sk, splitphase.KindNone
	}
	kind := s.kinds[t.Op]
	if kind == splitphase.KindNone {
		if sk.settled.Load() {
			return splitActExec, nil, splitphase.KindNone
		}
		return splitActPark, sk, splitphase.KindNone
	}
	s.det.Sample(worker, t.Key)
	return splitActLocal, sk, kind
}

// divert is the split table's answer to dispatch (under the read gate):
// commutative ops on a split key scatter round-robin across ALL worker
// queues (each worker absorbs them into its own accumulator slot);
// everything else on a split key parks on the key's hold queue and nudges
// the coordinator. Keys not in the table go where the scheduler picked.
func (s *splitRunner) divert(env *envelope, w int) (int, parkResult) {
	sk := s.lookup(env.task.Key)
	if sk == nil {
		return w, parkMiss
	}
	if !sk.demoting.Load() && s.kinds[env.task.Op] != splitphase.KindNone {
		return int(sk.rr.Add(1)) % len(s.e.queues), parkMiss
	}
	res := sk.hold.park(*env, s.e.cfg.maxDepth)
	if res == parkHeld {
		s.parkedTasks.Add(1)
		s.requestMerge()
	}
	return w, res
}

// splitIdleTicks is how many consecutive quiescent epochs the coordinator
// tolerates before entering deep idle (ticker stopped, blocked on wake
// alone). Small enough that a quiescent executor stops ticking within ~10
// epochs; large enough that trickle traffic does not thrash the
// idle/resume transition.
const splitIdleTicks = 8

// loop is the epoch-merge coordinator: it folds the detector and merges
// accumulators every epoch interval, and sooner when a parked task wakes it
// (after a short coalesce window so a burst of parkers shares one epoch).
// It keeps running through the draining state — parked tasks count in
// flight, so Drain completes only after the coordinator releases them — and
// exits when the executor stops.
//
// After splitIdleTicks consecutive quiescent epochs it enters deep idle:
// the ticker stops and the coordinator blocks on the wake channel, so a
// quiescent executor burns no epoch wakeups at all. Parks already
// requestMerge; samples and local absorbs nudge through the idle flag
// (nudgeIdle). The store-then-recheck below closes the race with a worker
// that absorbed between this loop's last tick and the flag store: either
// the recheck sees the dirt, or the worker sees the flag and nudges.
func (s *splitRunner) loop() {
	defer close(s.done)
	e := s.e
	ticker := time.NewTicker(s.cfg.epoch)
	defer ticker.Stop()
	quiet := 0
	for {
		if quiet >= splitIdleTicks {
			quiet = 0
			s.idle.Store(true)
			if s.busyCheck() {
				s.idle.Store(false)
			} else {
				ticker.Stop()
				select {
				case <-e.stopped:
					return
				case <-s.wake:
				}
				s.idle.Store(false)
				ticker.Reset(s.cfg.epoch)
				if !s.coalesce() {
					return
				}
			}
		} else {
			select {
			case <-e.stopped:
				return
			case <-s.wake:
				if !s.coalesce() {
					return
				}
			case <-ticker.C:
			}
		}
		if s.tick() {
			quiet = 0
		} else {
			quiet++
		}
	}
}

// coalesce delays a wake-triggered merge by the configured window so a burst
// of parkers shares one epoch; false means the executor stopped meanwhile.
func (s *splitRunner) coalesce() bool {
	if s.cfg.coalesce <= 0 {
		return true
	}
	t := time.NewTimer(s.cfg.coalesce)
	select {
	case <-s.e.stopped:
		t.Stop()
		return false
	case <-t.C:
		return true
	}
}

// busyCheck reports whether a merge epoch would find work right now —
// the deep-idle entry recheck.
func (s *splitRunner) busyCheck() bool {
	tbl := s.table.Load()
	for _, sk := range tbl.keys {
		if sk.demoting.Load() {
			return true
		}
	}
	return s.pending(tbl)
}

// tick runs one coordinator epoch: fold the detector (promotions and demote
// marks), then — if the table holds parked tasks, dirty accumulators or a
// pending demotion — one epoch.run: capture the hold queues, drain every
// worker queue, fold the accumulators into the owning shards' stores, demote
// marked keys and release the captured tasks to their owners. The return
// reports whether the epoch found work — loop()'s deep-idle counter feeds on
// consecutive false returns.
func (s *splitRunner) tick() bool {
	e := s.e
	s.refold()
	tbl := s.table.Load()
	if len(tbl.keys) == 0 {
		return false
	}
	demotePending := false
	for _, sk := range tbl.keys {
		if sk.demoting.Load() {
			demotePending = true
			break
		}
	}
	if !demotePending && !s.pending(tbl) {
		return false // quiescent epoch: nothing held, nothing dirty
	}
	start := time.Now()
	if s.all == nil {
		for w := range e.queues {
			s.all = append(s.all, w)
		}
	}
	demoted := 0
	ok := s.run(
		func() [][]envelope {
			// One hold-queue generation per key, under the write gate: every
			// op enqueued before a captured task was enqueued under the read
			// gate, strictly before this acquisition — so it is in a worker
			// queue (or an accumulator) the drain barriers will cover. Tasks
			// parking after the capture form the next generation and wait one
			// more epoch.
			captured := make([][]envelope, len(tbl.keys))
			for i, sk := range tbl.keys {
				captured[i] = sk.hold.take(false)
			}
			return captured
		},
		s.all,
		func() {
			// settled flips true first: after this epoch's barriers, no
			// pre-promotion straggler remains in any queue, so a worker
			// dequeuing a non-commutative envelope for this key from now on
			// is holding a coordinator release.
			for _, sk := range tbl.keys {
				sk.settled.Store(true)
				s.install(sk, "merge")
			}
		},
		func(captured [][]envelope) {
			// Demote marked keys (their residual parkers join the release)
			// and publish the new table BEFORE any release is re-enqueued:
			// workers route released envelopes by the table published here.
			if demotePending {
				next := &splitTable{keys: make([]*splitKey, 0, len(tbl.keys))}
				for _, sk := range tbl.keys {
					if sk.demoting.Load() {
						demoted++
						delete(s.low, sk.key)
						continue
					}
					next.keys = append(next.keys, sk)
				}
				s.table.Store(next)
			}
			for i, sk := range tbl.keys {
				envs := captured[i]
				if sk.demoting.Load() {
					// Residual generation parked during the demote window:
					// the key leaves the table, so nothing would ever capture
					// it again.
					envs = append(envs, sk.hold.take(false)...)
				}
				s.release(e.repick(sk.key), envs)
			}
		})
	if ok {
		s.demoted.Add(uint64(demoted))
		s.mergedEpochs.Add(1)
		s.mergeNs.Add(uint64(time.Since(start)))
	}
	return true
}

// install folds sk's accumulators and installs the aggregate into the owning
// shard's store on a coordinator-owned thread. Deltas are never lost: on
// error they rejoin the accumulator and the next epoch retries the install.
func (s *splitRunner) install(sk *splitKey, what string) {
	agg, ok := sk.acc.Take()
	if !ok {
		return
	}
	shard := s.e.shardOf(s.e.repick(sk.key))
	if err := s.merge[shard].ApplyMerged(s.thread(shard), sk.key, agg); err != nil {
		sk.acc.Restore(agg)
		s.fail(fmt.Errorf("core: split %s key %d into shard %d: %w", what, sk.key, shard, err))
	}
}

// pending reports whether the table holds any work a merge epoch would
// perform: parked tasks or dirty accumulators.
func (s *splitRunner) pending(tbl *splitTable) bool {
	for _, sk := range tbl.keys {
		if !sk.hold.empty() || sk.acc.Dirty() {
			return true
		}
	}
	return false
}

// refold folds the detector window (if full) and applies its decisions:
// promote keys above the promote share (bounded by maxKeys), and mark keys
// below the demote share for grace consecutive folds as demoting. Static
// keys never demote. Promotions publish a new table and quiesce; nothing
// more is needed — ops dispatched before the publish legally serialize
// before the split window (they run or park as stragglers ahead of the first
// epoch's barriers).
func (s *splitRunner) refold() {
	shares, _, ok := s.det.Fold(s.cfg.window)
	if !ok {
		return
	}
	tbl := s.table.Load()
	for _, sk := range tbl.keys {
		if sk.static || sk.demoting.Load() {
			continue
		}
		if shares[sk.key] < s.cfg.demoteShare {
			if s.low == nil {
				s.low = make(map[uint64]int)
			}
			s.low[sk.key]++
			if s.low[sk.key] >= s.cfg.demoteGrace {
				sk.demoting.Store(true)
			}
		} else {
			delete(s.low, sk.key)
		}
	}
	type cand struct {
		key   uint64
		share float64
	}
	var cands []cand
	for k, share := range shares {
		if share >= s.cfg.promoteShare && tbl.lookup(k) == nil {
			cands = append(cands, cand{k, share})
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].share > cands[b].share })
	room := s.cfg.maxKeys - len(tbl.keys)
	if room <= 0 {
		return
	}
	if len(cands) > room {
		cands = cands[:room]
	}
	next := &splitTable{keys: make([]*splitKey, 0, len(tbl.keys)+len(cands))}
	next.keys = append(next.keys, tbl.keys...)
	for _, c := range cands {
		next.keys = append(next.keys, &splitKey{
			key: c.key,
			acc: splitphase.NewAccum(s.e.cfg.workers),
		})
	}
	sort.Slice(next.keys, func(a, b int) bool { return next.keys[a].key < next.keys[b].key })
	s.table.Store(next)
	s.quiesce()
	s.promoted.Add(uint64(len(cands)))
}

// flushFinal installs every accumulator's remaining aggregate at shutdown
// (halt path, after the workers have joined and the coordinator's done
// channel has closed). Locally-absorbed commutative ops were settled as
// completed the moment they hit a worker slot — their submitters were told
// the op committed — so even a hard Stop must fold them into the stores;
// dropping them would un-commit acknowledged work. With the workers gone and
// the coordinator dead there is no concurrency left: no new Apply can race
// the Take, and the coordinator's threads are free to reuse.
func (s *splitRunner) flushFinal() {
	for _, sk := range s.table.Load().keys {
		s.install(sk, "final flush")
	}
}

// stats snapshots the split-phase counters.
func (s *splitRunner) stats() SplitStats {
	return SplitStats{
		Keys:         uint64(len(s.table.Load().keys)),
		Promoted:     s.promoted.Load(),
		Demoted:      s.demoted.Load(),
		MergedEpochs: s.mergedEpochs.Load(),
		ParkedTasks:  s.parkedTasks.Load(),
		MergeNs:      s.mergeNs.Load(),
	}
}
