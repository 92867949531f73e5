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
// WithSplitPhase is incompatible with migration, so with ShardPerWorker under
// SchedAdaptive (the reason is stated on the epoch type).

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

// splitConfig is the resolved WithSplitPhase option set. Only coalesce has
// an option; the other values are the defaults below (DESIGN.md §9.2).
type splitConfig struct {
	epoch        time.Duration
	coalesce     time.Duration
	window       uint64
	promoteShare float64
	demoteShare  float64
	demoteGrace  int
	maxKeys      int
}

// SplitOption tunes split-phase execution.
type SplitOption func(*splitConfig)

// SplitCoalesce sets the delay between a park-triggered wake and the merge,
// letting a burst of parked readers share one epoch (default 100µs; 0
// merges immediately on wake).
func SplitCoalesce(d time.Duration) SplitOption {
	return func(c *splitConfig) { c.coalesce = d }
}

// WithSplitPhase enables split-phase execution for contended keys. Every
// shard workload must implement CommutativeWorkload and SplitMergeWorkload;
// incompatible with ShardPerWorker under SchedAdaptive, which migrates.
func WithSplitPhase(opts ...SplitOption) Option {
	return func(c *execConfig) {
		sc := defaultSplitConfig()
		for _, o := range opts {
			o(&sc)
		}
		c.split = &sc
	}
}

// defaultSplitConfig is the split phase's configuration: a merge at least
// every millisecond; a fold every 4096 detector samples, which promotes a
// key carrying at least 5% of them and demotes one below 2% for three folds
// in a row; at most 16 split keys.
func defaultSplitConfig() splitConfig {
	return splitConfig{
		epoch:        time.Millisecond,
		coalesce:     100 * time.Microsecond,
		window:       4096,
		promoteShare: 0.05,
		demoteShare:  0.02,
		demoteGrace:  3,
		maxKeys:      16,
	}
}

// splitKey is one split-table entry: the key's per-worker accumulators and
// its hold queue for parked (non-commutative, or demote-window) tasks.
type splitKey struct {
	key uint64
	acc *splitphase.Accum
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
	// traffic is the deep-idle event: only the coordinator waits on it, and
	// only in deep idle (sleep). Workers notify it after every absorb and
	// detector sample, so while the coordinator ticks that notify is one
	// atomic load.
	traffic eventCount

	// timer notifies the epoch's event at the next merge deadline, the epoch
	// interval's or a park's coalesce delay; due is the epoch interval's.
	// Coordinator-only.
	timer *time.Timer
	due   time.Time
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
	if sc.coalesce < 0 {
		return nil, fmt.Errorf("core: SplitCoalesce %v, want >= 0", sc.coalesce)
	}
	s := &splitRunner{
		cfg:   sc,
		det:   splitphase.NewDetector(cfg.workers, splitphase.DefaultReservoir, 1),
		merge: make([]SplitMergeWorkload, len(shards)),
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
	s.table.Store(&splitTable{})
	return s, nil
}

func (s *splitRunner) lookup(key uint64) *splitKey {
	return s.table.Load().lookup(key)
}

// parked counts a task parked on a split key's hold queue. The first
// parker of a generation wakes the coordinator on both its events — a
// ticking coordinator waits on the epoch's, a deep-idle one on traffic;
// later parkers need not, since the coordinator re-checks the hold queues
// whenever it wakes.
func (s *splitRunner) parked(first bool) {
	s.parkedTasks.Add(1)
	if first {
		s.ev.notify()
		s.traffic.notify()
	}
}

// sawTraffic wakes a deep-idle coordinator, called by a worker after every
// absorb and detector sample: the notify half of sleep's handshake.
//
//kstmvet:hotpath
func (s *splitRunner) sawTraffic() { s.traffic.notify() }

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
		s.sawTraffic() // new traffic must restart detector folding
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
// everything else on a split key parks on the key's hold queue and wakes
// the coordinator. Keys not in the table go where the scheduler picked.
func (s *splitRunner) divert(env *envelope, w int) (int, *holdQueue, parkResult) {
	sk := s.lookup(env.task.Key)
	if sk == nil {
		return w, nil, parkMiss
	}
	if !sk.demoting.Load() && s.kinds[env.task.Op] != splitphase.KindNone {
		return int(sk.rr.Add(1)) % len(s.e.queues), nil, parkMiss
	}
	res, first := sk.hold.park(*env, s.e.cfg.maxDepth)
	if res == parkHeld {
		s.parked(first)
	}
	return w, &sk.hold, res
}

// splitIdleTicks is how many consecutive quiescent epochs the coordinator
// tolerates before entering deep idle (timer stopped, blocked on the
// traffic event). Small enough that a quiescent executor stops ticking
// within ~10 epochs; large enough that trickle traffic does not thrash the
// idle/resume transition.
const splitIdleTicks = 8

// loop is the epoch-merge coordinator: it folds the detector and merges
// accumulators every epoch interval, and sooner when a task parks (after a
// short coalesce delay so a burst of parkers shares one epoch). It keeps
// running through the draining state — parked tasks count in flight, so
// Drain completes only after the coordinator releases them — and exits
// when the executor stops. After splitIdleTicks consecutive quiescent
// epochs it sleeps (deep idle) until traffic resumes, then merges after
// the coalesce delay. Every wait is a handshake on an eventCount.
func (s *splitRunner) loop() {
	s.timer = time.AfterFunc(s.cfg.epoch, s.ev.notify)
	defer s.timer.Stop()
	s.due = time.Now().Add(s.cfg.epoch)
	quiet := 0
	for {
		var soon time.Time
		if quiet >= splitIdleTicks {
			quiet = 0
			if !s.sleep() {
				return
			}
			now := time.Now()
			s.due, soon = now.Add(s.cfg.epoch), now.Add(s.cfg.coalesce)
		}
		if !s.wait(soon) {
			return
		}
		if s.tick() {
			quiet = 0
		} else {
			quiet++
		}
	}
}

// wait blocks until the next merge is due — the epoch deadline, or the
// coalesce delay after a park (soon, once set) — and reports false once the
// executor stops. The timer, re-armed for whichever comes first, the first
// parker of a generation and the stop broadcast notify the epoch's event.
func (s *splitRunner) wait(soon time.Time) bool {
	for {
		key := s.ev.prepareWait()
		if s.e.stopping() {
			s.ev.cancelWait(key)
			return false
		}
		now := time.Now()
		if soon.IsZero() && s.held() {
			soon = now.Add(s.cfg.coalesce)
		}
		at := s.due
		if !soon.IsZero() && soon.Before(at) {
			at = soon
		}
		if now.Before(at) {
			s.timer.Reset(at.Sub(now))
			s.ev.commitWait(key)
			continue
		}
		s.ev.cancelWait(key)
		if !now.Before(s.due) {
			// The epoch interval's merge: the next is one interval on, or
			// at once if this one came an interval late (a Ticker's one
			// buffered tick).
			if s.due = s.due.Add(s.cfg.epoch); s.due.Before(now) {
				s.due = now
			}
		}
		return true
	}
}

// sleep is the deep idle: one handshake on the traffic event, re-checking
// whether a merge would find work. A worker's absorb or sample, a first
// park and the stop broadcast notify it; whichever wakes the coordinator,
// it resumes ticking. It reports false once the executor stops.
func (s *splitRunner) sleep() bool {
	s.timer.Stop()
	key := s.traffic.prepareWait()
	if s.busyCheck() || s.e.stopping() {
		s.traffic.cancelWait(key)
	} else {
		s.traffic.commitWait(key)
	}
	return !s.e.stopping()
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

// held reports whether a split key's hold queue has a parked task.
func (s *splitRunner) held() bool {
	for _, sk := range s.table.Load().keys {
		if !sk.hold.empty() {
			return true
		}
	}
	return false
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
// below the demote share for grace consecutive folds as demoting.
// Promotions publish a new table and quiesce; nothing more is needed — ops
// dispatched before the publish legally serialize before the split window
// (they run or park as stragglers ahead of the first epoch's barriers).
func (s *splitRunner) refold() {
	shares, _, ok := s.det.Fold(s.cfg.window)
	if !ok {
		return
	}
	tbl := s.table.Load()
	for _, sk := range tbl.keys {
		if sk.demoting.Load() {
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
// (halt path, after the workers and the coordinator have joined). Locally-absorbed commutative ops were settled as
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
