package core

import (
	"sync"
	"sync/atomic"

	"kstm/internal/stm"
)

// epoch is the one fence → drain → hand-off → release mechanism behind both
// shard-state migration (migrate.go, DESIGN.md §4.1) and split-phase merging
// (split.go, §9.4). A subsystem embeds it and supplies the domain steps as
// callbacks to run; everything those steps have in common — the dispatch
// gate, the hold queues, the drain barriers, the stop checks, the
// coordinator's STM threads and its error latch — lives here, once.
//
// The ordering argument, stated once for both subsystems. dispatch holds the
// read gate across pick → divert → enqueue-or-park, so a write-gate
// acquisition never interleaves with a half-routed task: every task routed
// before it is in a worker queue or a hold queue when it returns. The drain
// barriers are enqueued under that same acquisition, so no task reaches a
// worker queue between the capture (or quiesce) and its barrier. Each worker
// queue is FIFO and has one consumer, its owner, so the tasks ahead of a
// barrier run on the worker they were routed to, and before it; the barriers
// complete before the hand-off runs, and the hand-off completes before the
// release re-enqueues the held tasks — under the write gate again, so no new
// task slips ahead of them. A held task therefore executes after every task
// that preceded it and against the state the hand-off installed, never
// against a half-moved range or a partial merge.
//
// Barriers and released tasks must not be refused, yet the worker queues are
// bounded. Both are enqueued under the write gate, where no dispatcher can
// enqueue, so a full queue changes only by its owner dequeuing: put waits for
// that, at most one queue's depth of task executions.
//
// An epoch serialises on this one gate and neither hand-off callback is
// written to run inside the other's fence, which is the reason NewExecutor
// rejects WithSplitPhase with a migrating executor (ShardPerWorker under
// SchedAdaptive).
type epoch struct {
	e *Executor
	// gate orders dispatch (read side) against capture and release (write
	// side).
	gate sync.RWMutex
	// threads caches the coordinator's STM threads, one per shard, for
	// hand-off callbacks; built on first use (the migrator drops them between
	// hand-offs). Coordinator-only: epochs of one executor never overlap.
	threads map[int]*stm.Thread
	lastErr atomic.Pointer[error]
	// ev is the coordinator's event (DESIGN.md §5.4); only the coordinator
	// waits on it. The last drain barrier notifies it, and so do the stop
	// broadcast and, under split phase, parks and the epoch timer.
	ev eventCount
	// barriers counts the current epoch's drain barriers not yet run.
	barriers atomic.Int32
}

// parkResult is the outcome of offering an envelope to a hold queue.
type parkResult int

const (
	// parkMiss: nothing holds the envelope — enqueue it to its worker.
	parkMiss parkResult = iota
	// parkHeld: the envelope is parked until the epoch's release.
	parkHeld
	// parkFull: the hold queue is at the depth bound — apply the executor's
	// backpressure policy; do NOT enqueue to a worker (the state the task
	// needs is in transit).
	parkFull
)

// holdQueue parks envelopes that must not reach a worker until an epoch's
// hand-off has landed: one per moved range of a migration fence, one per
// split key.
type holdQueue struct {
	mu     sync.Mutex
	held   []envelope
	closed bool // set by a final take; parking then declines
}

// park holds env unless the queue is closed, and reports whether env is the
// first of its generation (the queue was empty). bound caps the queue (0 =
// unbounded), mirroring the per-worker queue depth so a held range or key
// sheds or blocks exactly like a full worker queue instead of absorbing
// unbounded load mid-epoch.
func (h *holdQueue) park(env envelope, bound int) (parkResult, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return parkMiss, false
	}
	if bound > 0 && len(h.held) >= bound {
		return parkFull, false
	}
	h.held = append(h.held, env)
	return parkHeld, len(h.held) == 1
}

// take removes and returns the held envelopes. A final take also closes the
// queue, so later park attempts fall through to normal dispatch (a released
// migration fence); otherwise parking continues and later parkers form the
// next generation (a split key, which stays split across epochs).
func (h *holdQueue) take(final bool) []envelope {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = h.closed || final
	held := h.held
	h.held = nil
	return held
}

// full reports whether park would refuse an envelope at bound: the
// re-check of a submitter waiting for room.
func (h *holdQueue) full(bound int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.closed && len(h.held) >= bound
}

func (h *holdQueue) empty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held) == 0
}

// divert asks the configured subsystem whether env may go to the worker the
// scheduler picked: a migration fence parks tasks of moved ranges, the split
// table scatters a split key's commutative ops and parks the rest. It
// returns the hold queue it offered env to, if any. Called under the read
// gate, after the pick (see dispatch).
func (e *Executor) divert(env *envelope, w int) (int, *holdQueue, parkResult) {
	if m := e.migr; m != nil {
		if f := m.fence.Load(); f != nil {
			if h := f.hold(env.task.Key); h != nil {
				res, _ := h.park(*env, e.cfg.maxDepth)
				return w, h, res
			}
		}
		return w, nil, parkMiss
	}
	return e.split.divert(env, w)
}

// takeHeld strips every hold queue of the configured subsystem (halt path).
// A coordinator may be mid-epoch — it abandons what it captured itself — so
// halt takes whatever is still parked rather than wait on it. A migration
// fence stays installed but closed, so racing parkers fall through to queues
// halt is already sweeping; a racing split parker lands in a hold queue a
// later halt iteration re-strips.
func (e *Executor) takeHeld() []envelope {
	var out []envelope
	if m := e.migr; m != nil {
		if f := m.fence.Load(); f != nil {
			for i := range f.held {
				out = append(out, f.held[i].take(true)...)
			}
		}
		return out
	}
	for _, sk := range e.split.table.Load().keys {
		out = append(out, sk.hold.take(false)...)
	}
	return out
}

// quiesce waits out every dispatcher currently between its pick and its
// enqueue: each holds the read gate across that window, so one write-side
// acquisition outlasts them all, and dispatchers arriving afterwards observe
// whatever was published before the call (a fence, a split table).
func (ep *epoch) quiesce() {
	ep.gate.Lock()
	ep.gate.Unlock() //kstmvet:ignore empty critical section is the point: Lock/Unlock back-to-back is the quiescence barrier
}

// put enqueues an envelope that must not be refused — a drain barrier or a
// released held task — on worker w's queue. The caller holds the write gate,
// so while the queue is full only its owner changes it: put waits on the
// owner's space event, which every dequeue notifies, then retries. If the
// executor stops first, the owner may never dequeue again, so put settles
// the envelope the way halt's sweep would: it runs a barrier and abandons a
// task with ErrStopped.
func (ep *epoch) put(w int, env envelope) {
	e := ep.e
	for !e.queues[w].TryPut(env) {
		if e.stopping() {
			if env.barrier != nil {
				env.barrier()
			} else {
				e.abandon(w, env, ErrStopped)
			}
			return
		}
		e.wakes[w].space.await(func() bool { return !e.queues[w].Full() || e.stopping() })
	}
	e.wakeWorker(w)
}

// drain enqueues one barrier envelope per listed worker queue; the caller
// holds the write gate. The last barrier to run notifies the epoch's event:
// the queues are FIFO, so by then every task enqueued before them has
// executed. Epochs of one executor never overlap, so one countdown serves
// them all.
func (ep *epoch) drain(workers []int) {
	ep.barriers.Store(int32(len(workers)))
	arrive := ep.arrive
	for _, w := range workers {
		ep.put(w, envelope{barrier: arrive})
	}
}

// arrive is a drain barrier's hook, run by its worker (or by halt's sweep,
// or put on a stopped executor).
func (ep *epoch) arrive() {
	if ep.barriers.Add(-1) == 0 {
		ep.ev.notify()
	}
}

// release hands held envelopes to owner's queue in park order. The caller
// holds the write gate (run's release step), so no new task slips ahead.
func (ep *epoch) release(owner int, envs []envelope) {
	for _, env := range envs {
		ep.put(owner, env)
	}
}

// abandon settles captured envelopes of an epoch cut short by executor stop:
// they were removed from their hold queues, so halt's sweep cannot see them.
func (ep *epoch) abandon(captured [][]envelope) {
	for _, envs := range captured {
		for _, env := range envs {
			ep.e.abandon(0, env, ErrStopped)
		}
	}
}

// run sequences one epoch: capture and enqueue the drain barriers under the
// write gate → wait for the barriers → hand-off → release under the write
// gate. A nil capture makes the first step a bare quiesce (migration parks on
// a fence installed beforehand and takes the held tasks only at release). If
// the executor stops anywhere in between, run abandons what was captured and
// reports false: the held tasks must settle as ErrStopped rather than be
// enqueued to exited workers, and the caller must not move its counters
// after Stop returned.
func (ep *epoch) run(capture func() [][]envelope, drainSet []int, handoff func(), release func(captured [][]envelope)) bool {
	var captured [][]envelope
	ep.gate.Lock()
	if capture != nil {
		captured = capture()
	}
	ep.drain(drainSet)
	ep.gate.Unlock()
	// The capture emptied hold queues: submitters waiting for room re-check.
	ep.e.changed.notify()
	ep.ev.await(func() bool { return ep.barriers.Load() == 0 || ep.e.stopping() })
	// halt's sweep (and put, on a full queue) runs unexecuted barriers too,
	// so the countdown can finish on a stopped executor, which must not run
	// a hand-off (and mutate Stats) after Stop/Drain has returned.
	if ep.e.stopping() {
		ep.abandon(captured)
		return false
	}
	handoff()
	if ep.e.stopping() {
		ep.abandon(captured)
		return false
	}
	ep.gate.Lock()
	release(captured)
	ep.gate.Unlock()
	ep.e.changed.notify()
	return true
}

// thread returns the coordinator's STM thread for a shard (coordinator
// goroutine only).
func (ep *epoch) thread(shard int) *stm.Thread {
	th, ok := ep.threads[shard]
	if !ok {
		if ep.threads == nil {
			ep.threads = make(map[int]*stm.Thread)
		}
		th = ep.e.shards[shard].stm.NewThread()
		ep.threads[shard] = th
	}
	return th
}

// fail records the most recent hand-off error (stats/debugging).
func (ep *epoch) fail(err error) { ep.lastErr.Store(&err) }

// Err returns the most recent hand-off error, if any.
func (ep *epoch) Err() error {
	if p := ep.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}
