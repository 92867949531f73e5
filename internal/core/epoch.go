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
// before it is in a worker queue or a hold queue when it returns. FIFO queues
// put those tasks ahead of the drain barriers enqueued next, the barriers
// complete before the hand-off runs, and the hand-off completes before the
// release re-enqueues the held tasks — under the write gate again, so no new
// task slips ahead of them. A held task therefore executes after every task
// that preceded it and against the state the hand-off installed, never
// against a half-moved range or a partial merge.
//
// An epoch serialises on this one gate and neither hand-off callback is
// written to run inside the other's fence, which is the reason NewExecutor
// rejects WithSplitPhase × WithMigration.
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

// park holds env unless the queue is closed. bound caps the queue (0 =
// unbounded), mirroring the per-worker queue depth so a held range or key
// sheds or blocks exactly like a full worker queue instead of absorbing
// unbounded load mid-epoch.
func (h *holdQueue) park(env envelope, bound int) parkResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return parkMiss
	}
	if bound > 0 && len(h.held) >= bound {
		return parkFull
	}
	h.held = append(h.held, env)
	return parkHeld
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

func (h *holdQueue) empty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held) == 0
}

// divert asks the configured subsystem whether env may go to the worker the
// scheduler picked: a migration fence parks tasks of moved ranges, the split
// table scatters a split key's commutative ops and parks the rest. Called
// under the read gate, after the pick (see dispatch).
func (e *Executor) divert(env *envelope, w int) (int, parkResult) {
	if m := e.migr; m != nil {
		if f := m.fence.Load(); f != nil {
			return w, f.park(*env, e.cfg.maxDepth)
		}
		return w, parkMiss
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

// drain enqueues one barrier envelope per listed worker queue and waits for
// all of them: the queues are FIFO, so when a barrier runs, every task
// enqueued before it has executed. False means the executor stopped first.
func (ep *epoch) drain(workers []int) bool {
	e := ep.e
	var left atomic.Int32
	left.Store(int32(len(workers)))
	done := make(chan struct{})
	barrier := func() {
		if left.Add(-1) == 0 {
			close(done)
		}
	}
	for _, w := range workers {
		e.queues[w].Put(envelope{barrier: barrier})
		e.wakeWorker(w)
	}
	select {
	case <-done:
	case <-e.stopped:
	}
	// Deterministic stop check: halt's queue sweep signals unexecuted barriers
	// too, so when both channels are ready the select may have taken the
	// barrier branch — a stopped executor must not run a hand-off (and mutate
	// Stats) after Stop/Drain has returned.
	return !e.stopping()
}

// release hands held envelopes to owner's queue in park order. The caller
// holds the write gate (run's release step), so no new task slips ahead.
func (ep *epoch) release(owner int, envs []envelope) {
	if len(envs) == 0 {
		return
	}
	for _, env := range envs {
		ep.e.queues[owner].Put(env)
	}
	ep.e.wakeWorker(owner)
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

// run sequences one epoch: capture under the write gate → drain the listed
// worker queues → hand-off → release under the write gate. A nil capture
// makes the first step a bare quiesce (migration parks on a fence installed
// beforehand and takes the held tasks only at release). If the executor stops
// anywhere in between, run abandons what was captured and reports false: the
// held tasks must settle as ErrStopped rather than be enqueued to exited
// workers, and the caller must not move its counters after Stop returned.
func (ep *epoch) run(capture func() [][]envelope, drainSet []int, handoff func(), release func(captured [][]envelope)) bool {
	var captured [][]envelope
	if capture == nil {
		ep.quiesce()
	} else {
		ep.gate.Lock()
		captured = capture()
		ep.gate.Unlock()
	}
	if !ep.drain(drainSet) {
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
