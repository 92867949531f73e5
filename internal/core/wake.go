package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"kstm/internal/stm"
)

// Event-driven dispatch (DESIGN.md §5.4). Idle workers used to poll their
// queue in a spin/100µs-sleep backoff loop, so a task landing on a parked
// worker ate up to a full sleep quantum before it first executed. Instead,
// each worker now owns a reusable one-token wake channel — the same
// discipline as Future.sem — plus an atomic idle-state word, and every
// enqueue performs a targeted wake of exactly the owning worker, only when
// that worker is marked parked:
//
//	worker park:                    enqueuer wake:
//	  parked.Add(1)                   queue.TryPut(env)
//	  idle.Store(idleParked)          if parked.Load() == 0 { return }
//	  re-poll queue (Get)             if idle.CAS(parked, active) {
//	  block on token                    parked.Add(-1)
//	                                    token <- (non-blocking)
//	                                  }
//
// The pairs (idle word, queue) are a Dekker handshake: the worker publishes
// idleParked BEFORE its final poll, the enqueuer publishes its ring slot
// BEFORE loading the idle word, and the ring's Get reads the slot sequence
// TryPut's publish stores (seq-cst atomics) — so either the worker's re-poll
// sees the envelope, or the enqueuer sees idleParked and wakes it. A slot
// claimed but not yet published hides the slots behind it from Get; its own
// publisher's idle-word load then wakes the worker (the queue package doc
// states the argument in full). A wake cannot be lost.
//
// Invariant: whichever side wins the parked→active CAS decrements the
// executor's parked count — exactly once per park. A worker that aborts its
// own park after an enqueuer already CAS'd may leave the enqueuer's token in
// the channel; the next park consumes it, re-CASes itself active (a
// self-unpark), and re-polls — one bounded spurious wake, never a livelock
// and never a stale count.
//
// The executor-level parked counter keeps the uncontended enqueue path
// wake-free: a Submit into a busy executor costs one atomic load here, no
// CAS, no channel operation, no allocation — preserving the Submit =
// 0 allocs/op gate (hotpath_test.go).
//
// Caller-runs (DESIGN.md §5.4). A SubmitFuncOrRun caller whose key's owner
// is parked with an empty queue borrows the owner instead of waking it: the
// CAS parked→borrowed hands it the worker's thread, shard, counters and
// histograms for one task, and release stores parked again:
//
//	borrower:                       enqueuer (wake side, unchanged):
//	  idle.CAS(parked, borrowed)      queue.TryPut(env)
//	  run one task                    idle.CAS(parked, active) fails
//	  idle.Store(idleParked)            while borrowed: nobody woken
//	  re-poll queue (Len), state
//	  non-empty or not running → tryWake
//
// Release is the park handshake again — publish parked, then read the
// queue, against TryPut, then read the flag — so an enqueue that found the
// word borrowed is seen by release's read and woken there.
//
// Ownership invariant: a worker's thread, counters and histograms are
// touched only by whoever moved the idle word out of idleParked. The
// worker's every exit from parkWorker goes through reclaim, which waits
// out a borrower (one task) before claiming idleActive.

// Worker idle states (workerWake.idle).
const (
	idleActive uint32 = iota
	idleParked
	// idleBorrowed: a caller-runs borrower holds the parked worker's
	// execution state for one task (borrow / release).
	idleBorrowed
)

// parkSpins is how many Gosched-only empty polls a worker tolerates before
// parking on its wake token: short gaps in a steady stream stay
// latency-optimal (no futex round-trip), while a genuinely idle worker
// blocks instead of burning a core — the event-driven replacement for the
// old backoffSpins/backoffPark pair.
const parkSpins = 64

// workerWake is one worker's park/wake state, padded to a cache line so an
// enqueuer waking worker i never bounces the line worker i+1's enqueuers
// are reading.
//
//kstmvet:padalign
type workerWake struct {
	// idle is the worker's idle-state word: idleActive, idleParked or
	// idleBorrowed.
	idle atomic.Uint32
	// spaceWaiters counts submitters blocked on this worker's full queue.
	spaceWaiters atomic.Int32
	// token is the reusable one-token wake channel (enqueuer → worker).
	token chan struct{}
	// space is the reusable one-token space channel (worker → blocked
	// submitters); level-triggered, waiters re-check the depth bound.
	space chan struct{}
	// th is the worker's transactional thread, published by the worker
	// before its first park so a borrower can execute with it.
	th *stm.Thread
	_  [32]byte
}

// initWakes builds the per-worker wake state and the drain-completion
// channel; called once from NewExecutor.
func (e *Executor) initWakes(workers int) {
	e.wakes = make([]workerWake, workers)
	for i := range e.wakes {
		e.wakes[i].token = make(chan struct{}, 1)
		e.wakes[i].space = make(chan struct{}, 1)
	}
	e.drainWake = make(chan struct{}, 1)
}

// wakeWorker is the enqueue-side half of the park/wake handshake: called
// after an envelope lands in worker w's queue. The fast path — nobody
// parked — is one atomic load. Only w itself is ever woken: it is its
// queue's only consumer.
//
//kstmvet:hotpath
func (e *Executor) wakeWorker(w int) {
	if e.parked.Load() == 0 {
		return
	}
	e.tryWake(w)
}

// tryWake transitions worker w from parked to active and hands it the wake
// token. The CAS makes the transition exclusive: only the winner decrements
// the parked count (see the invariant above). The token send never blocks —
// a full channel means a token already waits, which is wake enough.
//
//kstmvet:hotpath
func (e *Executor) tryWake(w int) bool {
	ws := &e.wakes[w]
	if !ws.idle.CompareAndSwap(idleParked, idleActive) {
		return false
	}
	e.parked.Add(-1)
	select {
	case ws.token <- struct{}{}:
	default:
	}
	return true
}

// wakeAll wakes every parked worker — the broadcast half used by lifecycle
// transitions (Drain entry, the in-flight count reaching zero) that every
// worker must observe.
func (e *Executor) wakeAll() {
	if e.parked.Load() == 0 {
		return
	}
	for w := range e.wakes {
		e.tryWake(w)
	}
}

// parkWorker blocks worker i until an enqueue (or a lifecycle event) wakes
// it. It returns an envelope when the final pre-block poll — the worker's
// half of the Dekker handshake — finds work that raced the park. A false
// return means the caller should simply re-run its loop: spurious wakes are
// bounded and benign, lost wakes impossible.
func (e *Executor) parkWorker(i int) (envelope, bool) {
	ws := &e.wakes[i]
	e.parked.Add(1)
	ws.idle.Store(idleParked)
	// Final poll AFTER publishing idleParked: an enqueuer that missed the
	// flag published its slot before loading it, so this Get observes the
	// envelope (or an earlier claimant's unpublished slot, whose publisher
	// sees the flag); an enqueuer that sees the flag wakes us.
	env, ok := e.queues[i].Get()
	if ok {
		e.unparkSelf(ws)
		return env, true
	}
	if e.parkAbort() {
		e.unparkSelf(ws)
		return envelope{}, false
	}
	select {
	case <-ws.token:
		// A waker's token finds the word active. A stale token from an
		// earlier aborted park finds it parked (or borrowed): reclaim makes
		// that a self-unpark, after any borrower is done.
		e.reclaim(ws)
	case <-e.stopped:
		e.unparkSelf(ws)
	}
	return envelope{}, false
}

// parkAbort reports lifecycle states under which a worker must not block:
// stopped (exit now) and draining with nothing left in flight (exit now).
// Ordered against decInflight exactly like the queue handshake: the worker
// publishes idleParked before loading inflight, the last finisher decrements
// inflight before loading the parked count — one side always sees the other.
func (e *Executor) parkAbort() bool {
	switch e.state.Load() {
	case stateStopped:
		return true
	case stateDraining:
		return e.inflight.Load() == 0
	}
	return false
}

// unparkSelf reverts an aborted park. If an enqueuer's CAS already made the
// worker active, the enqueuer owns the decrement and may have left a token;
// drain it non-blockingly so the next park does not spuriously wake. (A
// token sent after this drain is the bounded stale-token case parkWorker
// reconciles.)
func (e *Executor) unparkSelf(ws *workerWake) {
	e.reclaim(ws)
	select {
	case <-ws.token:
	default:
	}
}

// reclaim is the worker's half of the ownership invariant, run on every exit
// from parkWorker: wait while a borrower holds the word (bounded by the one
// task it runs), then take it from parked to active. If a waker's CAS already
// made the worker active, the waker owns the decrement; otherwise the worker
// does.
func (e *Executor) reclaim(ws *workerWake) {
	for {
		switch ws.idle.Load() {
		case idleActive:
			return
		case idleParked:
			if ws.idle.CompareAndSwap(idleParked, idleActive) {
				e.parked.Add(-1)
				return
			}
		default:
			runtime.Gosched()
		}
	}
}

// borrow claims parked worker w for the calling goroutine (caller-runs): the
// CAS parked→borrowed, where tryWake would CAS parked→active. A claimed
// worker whose queue holds work is released at once — a borrowed task never
// jumps work already queued for its worker. The parked count is left alone:
// to every enqueuer the worker is still parked, just not wakeable until
// release.
//
//kstmvet:hotpath
func (e *Executor) borrow(w int) bool {
	if !e.wakes[w].idle.CompareAndSwap(idleParked, idleBorrowed) {
		return false
	}
	if e.queues[w].Len() != 0 {
		e.release(w)
		return false
	}
	return true
}

// release hands a borrowed worker back: store parked, then read the queue
// and the state. An enqueuer that saw the word borrowed woke nobody, and a
// Drain or last-finisher broadcast that saw it borrowed was lost too, so
// either condition wakes the worker here. The worker is its queue's only
// consumer and it is blocked, so a TryPut that claimed its slot before the
// enqueuer read the flag is counted in Len (tail − head).
//
//kstmvet:hotpath
func (e *Executor) release(w int) {
	e.wakes[w].idle.Store(idleParked)
	if e.queues[w].Len() != 0 || e.state.Load() != stateRunning {
		e.tryWake(w)
	}
}

// decInflight is the single funnel for in-flight decrements: when the count
// reaches zero under a draining executor, it signals Drain and broadcasts to
// the workers (parked draining workers exit on it). Every Add(-1) in the
// executor goes through here — a decrement that bypassed the funnel could be
// the one Drain never hears about.
//
//kstmvet:hotpath
func (e *Executor) decInflight(n int64) {
	if e.inflight.Add(-n) == 0 && e.state.Load() == stateDraining {
		select {
		case e.drainWake <- struct{}{}:
		default:
		}
		e.wakeAll()
	}
}

// signalSpace is the worker-side half of backpressure waits: after dequeuing
// work, hand blocked submitters a space token. Costs one atomic load when
// nobody waits.
//
//kstmvet:hotpath
func (e *Executor) signalSpace(w int) {
	ws := &e.wakes[w]
	if ws.spaceWaiters.Load() == 0 {
		return
	}
	select {
	case ws.space <- struct{}{}:
	default:
	}
}

// waitSpace blocks a submitter until worker w's queue may have room (or the
// executor stops, or ctx is done). Level-triggered: the caller's loop
// re-checks the depth bound, so a spurious wake costs one re-check and a
// missed condition is re-signalled by the worker's next dequeue. The
// registered-then-recheck ordering closes the Dekker gap against a dequeue
// that ran between the caller's depth check and the registration.
func (e *Executor) waitSpace(w int, ctx context.Context) {
	ws := &e.wakes[w]
	ws.spaceWaiters.Add(1)
	if e.queues[w].Full() && e.state.Load() != stateStopped {
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case <-ws.space:
		case <-e.stopped:
		case <-done:
		}
	}
	ws.spaceWaiters.Add(-1)
	// Chain the token: if space (or termination) is still on offer and
	// another submitter waits, pass the wake along — the worker signals once
	// per dequeue batch, not once per waiter. Chaining only under a true
	// condition keeps two waiters on a still-full queue from ping-ponging a
	// token between them.
	if ws.spaceWaiters.Load() > 0 &&
		(!e.queues[w].Full() || e.state.Load() == stateStopped) {
		select {
		case ws.space <- struct{}{}:
		default:
		}
	}
}
