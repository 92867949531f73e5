package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Future lifecycle states. The state word carries both the "result is
// readable" bit the waiters poll and the two-party recycle handshake between
// the settling worker and the consuming waiter: whichever side finishes
// second returns the shell to the pool, so a recycle can never race the
// other side's last touch (no settle-after-recycle).
const (
	// futPending: not yet settled; res must not be read.
	futPending uint32 = iota
	// futSettled: res is readable, but the settler may still be signalling
	// (closing the done channel, sending the wake-up token).
	futSettled
	// futReleased: the settler is completely done with the shell.
	futReleased
	// futConsumed: a waiter has taken the result; the shell is dead.
	futConsumed
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
// the waiter use Done() (a broadcast channel) or Poll (never consumes),
// both safe concurrently with the one waiter until it consumes.
type Future struct {
	state atomic.Uint32
	// sem is a reusable one-token wake-up channel, allocated once per shell
	// and kept across recycles, so a blocking Wait allocates nothing.
	sem chan struct{}
	// done is the lazily-created broadcast channel behind Done(): callers
	// that only Poll or Wait never pay for it.
	done atomic.Pointer[doneChan]
	// cb, when set (SubmitFunc), turns the shell into a callback carrier:
	// complete invokes it with the result and recycles immediately — no
	// waiter handshake, because the shell was never handed to a caller.
	// Keeping the callback here (instead of widening every envelope by a
	// function pointer) keeps a ring slot at one 64-byte cache line — the
	// envelope is copied into a slot on every enqueue.
	cb  func(TaskResult)
	res TaskResult
	// deadline, when non-zero, is the task's queue deadline as a monotonic
	// offset from the executor's base instant (SubmitFuncTimed). It rides in
	// the pooled shell — not the envelope — for the same size-class reason
	// as cb: the envelope must stay in the 64-byte node class.
	deadline time.Duration
}

// doneChan pairs the broadcast channel with a close-once guard: both the
// settler and a Done() caller that lost the install race may try to close it.
type doneChan struct {
	ch   chan struct{}
	once sync.Once
}

func (d *doneChan) close() { d.once.Do(func() { close(d.ch) }) }

// futurePool recycles settled-and-consumed Future shells. Steady-state
// Submit traffic allocates no futures and no channels.
var futurePool = sync.Pool{
	New: func() any { return &Future{sem: make(chan struct{}, 1)} },
}

// newFuture returns a pending shell from the pool.
//
//kstmvet:hotpath
func newFuture() *Future { return futurePool.Get().(*Future) }

// discard returns a shell that was never shared (dispatch failed before
// enqueue) straight to the pool. Only legal while no other goroutine can
// hold a reference.
//
//kstmvet:hotpath
func (f *Future) discard() { futurePool.Put(f) }

// complete resolves the future; the executor invokes it exactly once per
// settled task. After publishing the result and waking waiters it plays its
// half of the recycle handshake: if the consumer already took the result,
// the settler is the last to touch the shell and recycles it.
//
//kstmvet:hotpath
func (f *Future) complete(res TaskResult) {
	if cb := f.cb; cb != nil {
		// Callback shell: the settler is the sole owner (SubmitFunc never
		// exposed it), so no handshake — run the callback, recycle.
		f.cb = nil
		f.deadline = 0
		cb(res)
		futurePool.Put(f)
		return
	}
	f.res = res
	f.state.Store(futSettled)
	if d := f.done.Load(); d != nil {
		d.close()
	}
	select {
	case f.sem <- struct{}{}:
	default:
	}
	if !f.state.CompareAndSwap(futSettled, futReleased) {
		// The consumer got here first (state is futConsumed): every signal
		// above has landed, so recycling now cannot strand a waiter.
		f.recycle()
	}
}

// consume is the waiter's half of the handshake, called after the result has
// been copied out. Whichever side finishes second recycles.
//
//kstmvet:hotpath
func (f *Future) consume() {
	if f.state.CompareAndSwap(futReleased, futConsumed) {
		f.recycle()
		return
	}
	// The settler is still signalling: hand it the recycle duty. A failed
	// CAS here means the future was already consumed — a contract violation
	// Wait documents; leave the shell alone rather than double-recycle.
	f.state.CompareAndSwap(futSettled, futConsumed)
}

// recycle resets the shell and returns it to the pool. Reached only when
// both the settler and the consumer are done with it.
//
//kstmvet:hotpath
func (f *Future) recycle() {
	f.res = TaskResult{}
	f.cb = nil
	f.deadline = 0
	f.done.Store(nil)
	select {
	case <-f.sem: // drain a wake-up token the consumer never received
	default:
	}
	f.state.Store(futPending)
	futurePool.Put(f)
}

// Done returns a channel closed when the result is available. The channel is
// created lazily — Poll- and Wait-only callers never allocate it.
func (f *Future) Done() <-chan struct{} {
	if d := f.done.Load(); d != nil {
		return d.ch
	}
	d := &doneChan{ch: make(chan struct{})}
	if f.state.Load() != futPending {
		// Already settled; the settler may be past its done-channel check,
		// so close it ourselves rather than install it.
		d.close()
		return d.ch
	}
	if !f.done.CompareAndSwap(nil, d) {
		return f.done.Load().ch
	}
	if f.state.Load() != futPending {
		// complete ran between the install and this check and may have
		// missed the channel; the once-guard makes the double close safe.
		d.close()
	}
	return d.ch
}

// Wait blocks for the result or the context, whichever comes first. On
// completion it returns the result and the task's own error (res.Err) — and
// CONSUMES the future: the shell is recycled and must not be touched again.
// A ctx.Err() return does not consume; Wait may be called again. At most one
// goroutine may block here at a time (see the type doc); concurrent
// observers use Done or Poll.
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
	if f.state.Load() == futPending {
		if ctx == nil || ctx.Done() == nil {
			<-f.sem
		} else {
			select {
			case <-f.sem:
			case <-ctx.Done():
				return TaskResult{}, ctx.Err()
			}
		}
	}
	res := f.res
	f.consume()
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
	if f.state.Load() == futPending {
		return TaskResult{}, false
	}
	return f.res, true
}
