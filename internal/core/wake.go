package core

import (
	"context"
	"sync"
	"sync/atomic"

	"kstm/internal/stm"
)

// One wait primitive (DESIGN.md §5.4). Every blocking wait in the executor is
// the same handshake on an eventCount (Vyukov's eventcount):
//
//	waiter:                           notifier:
//	  key := ev.prepareWait()           change the state
//	  re-check the condition            ev.notify()
//	  holds → ev.cancelWait()
//	  else  → ev.commitWait(key)
//
// prepareWait publishes the waiter before the re-check and notify reads the
// waiter count after the change. Go's atomics are sequentially consistent,
// so either the re-check sees the change or notify sees the waiter and moves
// the epoch commitWait sleeps on: a wake cannot be lost, and a spurious one
// costs one re-check. The events and their clients:
//
//	event              waiters                    notifiers
//	wakes[w].work      worker w, parking          every put to w's queue unless w is
//	                                              borrowed; release of w with work queued
//	                                              or past running; lifecycle broadcast
//	wakes[w].space     submitters and epoch.put   worker w after every dequeue;
//	                   on w's full queue          lifecycle broadcast
//	Executor.changed   Drain; halt's sweep;       in-flight reaching zero past running;
//	                   hold-queue-full            stop; an epoch's capture and release;
//	                   submitters                 every put (halt's stragglers)
//	epoch.ev           the epoch's coordinator:   the last drain barrier; the split
//	                   run's barrier wait, the    timer; a hold-queue generation's
//	                   split merge wait           first split park; lifecycle broadcast
//	split.traffic      the split coordinator      workers after every absorb and
//	                   in deep idle               detector sample; a generation's first
//	                                              split park; lifecycle broadcast
//
// The worker's idle word keeps its three states for caller-runs: a
// SubmitFuncOrRun caller whose key's owner is parked with an empty queue
// borrows the worker (the exclusive CAS parked→borrowed), runs one task with
// its thread, shard, counters and histograms, and release stores parked
// again. Only the worker moves the word to active, as the last step of its
// park, so a worker's execution state is touched only by whoever moved the
// word out of parked. A worker parked with an empty queue stays asleep
// across a borrow; an enqueue that finds it borrowed leaves the wake to the
// release, which reads the queue after it stores parked — the same
// publish-then-read pair as the park itself.

// Worker idle states (workerWake.idle).
const (
	idleActive uint32 = iota
	idleParked
	// idleBorrowed: a caller-runs borrower holds the parked worker's
	// execution state for one task (borrow / release).
	idleBorrowed
)

// parkSpins is how many Gosched-only empty polls a worker tolerates before
// parking on its work event: short gaps in a steady stream stay
// latency-optimal (no futex round-trip), while a genuinely idle worker
// blocks instead of burning a core.
const parkSpins = 64

// eventCount is the package's one wait primitive: a waiter count and an
// epoch in one atomic word, with a mutex and condition variable slow path.
// The zero value is ready to use and a wait allocates nothing.
type eventCount struct {
	// state holds the epoch in its high 32 bits and the number of prepared,
	// not yet notified waiters in its low 32.
	state atomic.Uint64
	once  sync.Once
	mu    sync.Mutex
	cond  sync.Cond
}

// prepareWait registers the caller as a waiter and returns the epoch key
// commitWait sleeps on. The caller must re-check its condition next, then
// call exactly one of cancelWait or commitWait with the key.
func (ec *eventCount) prepareWait() uint32 { return uint32(ec.state.Add(1) >> 32) }

// cancelWait withdraws the wait prepared with key, whose re-check found the
// condition already true. A notify since the prepare has withdrawn it.
func (ec *eventCount) cancelWait(key uint32) {
	for {
		s := ec.state.Load()
		if uint32(s>>32) != key || ec.state.CompareAndSwap(s, s-1) {
			return
		}
	}
}

// commitWait blocks until a notify after the matching prepareWait, which
// moves the epoch past key and withdraws the waiter.
func (ec *eventCount) commitWait(key uint32) {
	ec.once.Do(ec.bind)
	ec.mu.Lock()
	for uint32(ec.state.Load()>>32) == key {
		ec.cond.Wait()
	}
	ec.mu.Unlock()
}

// notify wakes every prepared waiter and withdraws them all, so a notify
// with none left — the next one before they prepare again included — is
// one atomic load.
//
//kstmvet:hotpath
func (ec *eventCount) notify() {
	if uint32(ec.state.Load()) == 0 {
		return
	}
	ec.mu.Lock()
	for {
		s := ec.state.Load()
		if uint32(s) == 0 || ec.state.CompareAndSwap(s, (s>>32+1)<<32) {
			break
		}
	}
	ec.mu.Unlock()
	ec.cond.Broadcast()
}

// await blocks until cond holds: the handshake in a loop, for waiters whose
// notifier may fire more than once before the condition holds. A condition
// that already holds returns without touching the word.
func (ec *eventCount) await(cond func() bool) {
	for !cond() {
		key := ec.prepareWait()
		if cond() {
			ec.cancelWait(key)
			return
		}
		ec.commitWait(key)
	}
}

// awaitCtx is await for a waiter that gives up when ctx ends: cond must
// report ctx's end, and a cancellable ctx notifies the event when it ends
// (context.AfterFunc, a blocked submitter's one allocation).
func (ec *eventCount) awaitCtx(ctx context.Context, cond func() bool) {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, ec.notify)()
	}
	ec.await(cond)
}

// bind points the condition variable at mu on the first wait, so the zero
// eventCount needs no constructor; notify's Broadcast does not read L.
func (ec *eventCount) bind() { ec.cond.L = &ec.mu }

// workerWake is one worker's park and borrow state, padded to whole cache
// lines so an enqueuer notifying worker i never bounces the line worker
// i+1's enqueuers are reading.
//
//kstmvet:padalign
type workerWake struct {
	// idle is the worker's idle-state word: idleActive, idleParked or
	// idleBorrowed.
	idle atomic.Uint32
	// work wakes the parked worker: every put to its queue notifies it.
	work eventCount
	// space wakes submitters blocked on the worker's full queue: the worker
	// notifies it after every dequeue.
	space eventCount
	// th is the worker's transactional thread, published by the worker
	// before its first park so a borrower can execute with it.
	th *stm.Thread
}

// wakeWorker is the enqueue side of the park handshake, called after an
// envelope lands in worker w's queue. It notifies w's work event (only w is
// woken: it is its queue's only consumer) unless a borrower holds w — its
// release sees the envelope and notifies instead, so the worker wakes once,
// when it can run. It also notifies the executor-level event, on which
// halt's final sweep waits for stragglers that enqueue after Stop. With
// nobody waiting it is three atomic loads, two of them of one cache line.
//
//kstmvet:hotpath
func (e *Executor) wakeWorker(w int) {
	if e.wakes[w].idle.Load() != idleBorrowed {
		e.wakes[w].work.notify()
	}
	e.changed.notify()
}

// broadcast notifies every event of the executor: the lifecycle
// transitions (Drain entry, stop, the in-flight count reaching zero past
// running) that every waiter must re-check.
func (e *Executor) broadcast() {
	for w := range e.wakes {
		e.wakes[w].work.notify()
		e.wakes[w].space.notify()
	}
	e.changed.notify()
	if e.epoch != nil {
		e.epoch.ev.notify()
	}
	if e.split != nil {
		e.split.traffic.notify()
	}
}

// dequeue takes worker i's next envelope. Every dequeue notifies the
// worker's space event before the worker can execute or park: a submitter
// blocked on the full queue re-checks it.
//
//kstmvet:hotpath
func (e *Executor) dequeue(i int) (envelope, bool) {
	env, ok := e.queues[i].Get()
	if ok {
		e.wakes[i].space.notify()
	}
	return env, ok
}

// parkWorker blocks worker i until its queue holds a published envelope (or
// the lifecycle asks it to exit) and it has taken its idle word back from
// parked to active. While a borrower holds the word, the worker waits for
// the release, which notifies it when it hands back a worker with work.
func (e *Executor) parkWorker(i int) {
	ws := &e.wakes[i]
	ws.idle.Store(idleParked)
	ws.work.await(func() bool {
		return (e.queues[i].Ready() || e.parkAbort()) && ws.idle.CompareAndSwap(idleParked, idleActive)
	})
}

// parkAbort reports lifecycle states under which a worker must not block:
// stopped (exit now) and draining with nothing left in flight (exit now).
// Both transitions broadcast after they change the state.
func (e *Executor) parkAbort() bool {
	switch e.state.Load() {
	case stateStopped:
		return true
	case stateDraining:
		return e.inflight.Load() == 0
	}
	return false
}

// borrow claims parked worker w for the calling goroutine (caller-runs): the
// CAS parked→borrowed. A claimed worker whose queue holds work is released
// at once — a borrowed task never jumps work already queued for its worker.
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
// and the state. An enqueuer that found the word borrowed notified nobody,
// and a worker woken by a broadcast went back to sleep, so either
// condition notifies the worker here. A worker parked with an empty queue
// stays asleep across the borrow. The worker is its queue's only consumer
// and it is parked, so a TryPut that claimed its slot before the enqueuer
// read the word is counted in Len (tail − head).
//
//kstmvet:hotpath
func (e *Executor) release(w int) {
	e.wakes[w].idle.Store(idleParked)
	if e.queues[w].Len() != 0 || e.state.Load() != stateRunning {
		e.wakes[w].work.notify()
	}
}

// decInflight is the single funnel for in-flight decrements: when the count
// reaches zero past the running state, it broadcasts — Drain and halt's
// sweep wait for it, and parked draining workers exit on it. Every Add(-1)
// in the executor goes through here: a decrement that bypassed the funnel
// could be the one Drain never hears about.
//
//kstmvet:hotpath
func (e *Executor) decInflight(n int64) {
	if e.inflight.Add(-n) == 0 && e.state.Load() >= stateDraining {
		e.broadcast()
	}
}

// waitRoom blocks a submitter whose dispatch found no room — worker w's
// queue full, or, with h non-nil, hold queue h full — until room may have
// appeared, the executor stops, or ctx is done. The caller's next attempt
// re-checks. Room in a worker queue comes from its owner's dequeue (the
// space event); room in a hold queue from an epoch's capture or release
// (the executor-level event).
func (e *Executor) waitRoom(w int, h *holdQueue, ctx context.Context) {
	ev := &e.wakes[w].space
	if h != nil {
		ev = &e.changed
	}
	ev.awaitCtx(ctx, func() bool {
		switch {
		case e.stopping() || ctx.Err() != nil:
			return true
		case h != nil:
			return !h.full(e.cfg.maxDepth)
		}
		return !e.queues[w].Full()
	})
}
