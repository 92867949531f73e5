package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Future lifecycle states. The state word carries the "result is readable"
// bit the waiters poll and the waiter's declaration that it sleeps. Only the
// consumer recycles the shell: the settler's last touch (its Swap, or the
// token send a declared waiter receives before it reads res) always comes
// before the consumer's read, so no settle can land on a recycled shell.
const (
	// futPending: not yet settled; res must not be read; nobody sleeps.
	futPending uint32 = iota
	// futWaiting: not yet settled, and the one waiter has declared that it
	// sleeps on sem: the settle owes it exactly one wake-up token.
	futWaiting
	// futSettled: res is readable.
	futSettled
)

// Future is the pending result of SubmitAsync. A Future completes exactly
// once and is SINGLE-CONSUMER: the first Wait/WaitValue call that returns the
// task's result consumes the Future, recycling its shell into a pool — the
// Future is dead the moment that call returns, and no method may be invoked
// on it afterwards (see DESIGN.md §3.5 "Hot path").
//
// Waiting is single-goroutine too: at most ONE goroutine may be blocked in
// Wait/WaitValue at a time — the wake-up token is reusable precisely so the
// hot path never allocates a channel, and one token wakes one waiter.
// Sequential re-waits are fine (a Wait that returns the CALLER's context
// error has not consumed the Future; waiting again later — the orphaned-task
// pattern — is legal). Goroutines that need to observe completion alongside
// the waiter use Poll (never consumes), safe concurrently with the one
// waiter until it consumes.
type Future struct {
	state atomic.Uint32
	// sem is a reusable one-token wake-up channel, allocated once per shell
	// and kept across recycles, so a blocking Wait allocates nothing. It
	// holds a token only between a settle that found futWaiting and the
	// declared waiter's receive: it is empty whenever no waiter has declared
	// itself, so neither complete nor recycle touches it on the common path.
	sem chan struct{}
	// cb, when set (SubmitFuncOrRun), turns the shell into a callback carrier:
	// complete invokes it with the result and recycles immediately — no
	// waiter handshake, because the shell was never handed to a caller.
	// Keeping the callback here (instead of widening every envelope by a
	// function pointer) keeps a ring slot at one 64-byte cache line — the
	// envelope is copied into a slot on every enqueue.
	cb  func(TaskResult)
	res TaskResult
	// deadline, when non-zero, is the task's queue deadline as a monotonic
	// offset from the executor's base instant (SubmitFuncOrRun). It rides in
	// the pooled shell — not the envelope — for the same size-class reason
	// as cb: the envelope must stay in the 64-byte node class.
	deadline time.Duration
}

// futurePool recycles settled-and-consumed Future shells. Steady-state
// Submit traffic allocates no futures and no channels.
var futurePool = sync.Pool{
	New: func() any { return &Future{sem: make(chan struct{}, 1)} },
}

// newFuture returns a pending shell from the pool.
//
//kstmvet:hotpath
func newFuture() *Future { return futurePool.Get().(*Future) }

// complete resolves the future; the executor invokes it exactly once per
// settled task. A callback shell is owned by its settler alone, which runs
// the callback and recycles it. Otherwise the Swap publishes res and is the
// settler's last touch of the shell, unless it replaced futWaiting: then the
// token send is, and the waiter receives it before it reads res.
//
//kstmvet:hotpath
func (f *Future) complete(res TaskResult) {
	if cb := f.cb; cb != nil {
		cb(res)
		f.recycle()
		return
	}
	f.res = res
	if f.state.Swap(futSettled) == futWaiting {
		// A waiter sleeps on sem and is owed one token; sem is empty (at
		// most one token is ever owed), so the default case never runs.
		select {
		case f.sem <- struct{}{}:
		default:
		}
	}
}

// recycle resets the shell and returns it to the pool. Its callers are the
// only goroutine that holds the shell: the consuming waiter, the settler of
// a callback shell, or a submitter whose dispatch failed before the shell was
// shared. sem is already empty, because every token sent went to a declared
// waiter that received it.
//
//kstmvet:hotpath
func (f *Future) recycle() {
	*f = Future{sem: f.sem}
	futurePool.Put(f)
}

// Wait blocks for the result or the context, whichever comes first. On
// completion it returns the result and the task's own error (res.Err) — and
// CONSUMES the future: the shell is recycled and must not be touched again.
// A ctx.Err() return does not consume; Wait may be called again. At most one
// goroutine may block here at a time (see the type doc); concurrent
// observers use Poll.
//
// Orphaned-task contract: a ctx.Err() return means only that the CALLER
// stopped waiting — the task itself remains accepted and may still execute
// and mutate transactional state (its Future settles normally; Wait it again
// later to observe the outcome). A task is guaranteed not to run only when
// its own completion error (res.Err) is a context error or ErrStopped:
// workers re-check the submission context immediately before execution and
// settle such tasks as cancelled, counted under ExecStats.Cancelled. To
// abandon the work itself, cancel the context passed to Submit/SubmitAsync,
// not just the one passed to Wait.
func (f *Future) Wait(ctx context.Context) (TaskResult, error) {
	// Declare the sleep before taking it: a settle that comes first leaves
	// futPending behind and the CAS fails, so no token is needed.
	if f.state.Load() == futPending && f.state.CompareAndSwap(futPending, futWaiting) {
		if ctx == nil || ctx.Done() == nil {
			<-f.sem
		} else {
			select {
			case <-f.sem:
			case <-ctx.Done():
				if f.state.CompareAndSwap(futWaiting, futPending) {
					// Withdrawn before any settle: no token is owed.
					return TaskResult{}, ctx.Err()
				}
				// The settle swapped futWaiting out and owes this waiter
				// its token: take it, so sem is empty again at recycle.
				<-f.sem
			}
		}
	}
	res := f.res
	f.recycle()
	return res, res.Err
}

// WaitValue blocks like Wait and returns only the task's value: the typed
// submission path for callers that want a lookup's result without unpacking
// a TaskResult. The error is the task's own completion error (or ctx's).
// Like Wait, a settled return consumes the future.
func (f *Future) WaitValue(ctx context.Context) (any, error) {
	res, err := f.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// Poll returns the result without blocking; ok is false while pending. Poll
// never consumes the future: a Poll-only caller leaks the shell to the
// garbage collector instead of the pool, which is always safe.
func (f *Future) Poll() (res TaskResult, ok bool) {
	if s := f.state.Load(); s == futPending || s == futWaiting {
		return TaskResult{}, false
	}
	return f.res, true
}
