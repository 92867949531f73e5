package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The Future's wake-up protocol (DESIGN.md §3.5 "Pooled futures"): a settle
// sends the one token only to a waiter that declared itself (futWaiting), a
// waiter whose ctx fires withdraws its declaration or, if the settle beat it,
// receives the token it is owed, and sem is empty at every recycle.

// waitResult is what a background Wait returned.
type waitResult struct {
	res TaskResult
	err error
}

// waitAsync runs f.Wait(ctx) on its own goroutine and spins until the waiter
// has declared itself (futWaiting).
func waitAsync(t *testing.T, f *Future, ctx context.Context) <-chan waitResult {
	t.Helper()
	done := make(chan waitResult, 1)
	go func() {
		res, err := f.Wait(ctx)
		done <- waitResult{res, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.state.Load() != futWaiting {
		if time.Now().After(deadline) {
			t.Fatal("waiter never declared itself (state never futWaiting)")
		}
		runtime.Gosched()
	}
	return done
}

// recv returns the background Wait's outcome, failing after 5 s: a waiter
// that was owed a token and never got it hangs here.
func recv(t *testing.T, done <-chan waitResult) waitResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked 5s after the settle: its wake-up token was never sent")
		return waitResult{}
	}
}

// TestFutureSettleBeforeWait: a settle with no declared waiter does no
// channel operation, and the Wait that follows takes the result without
// blocking (an already-cancelled ctx would otherwise win).
func TestFutureSettleBeforeWait(t *testing.T) {
	f := newFuture()
	f.complete(TaskResult{Value: 41})
	if n := len(f.sem); n != 0 {
		t.Fatalf("settle without a declared waiter left %d token(s) in sem, want 0", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := f.Wait(ctx)
	if err != nil || res.Value != 41 {
		t.Fatalf("Wait after settle = (%v, %v), want (41, nil) without blocking", res.Value, err)
	}
}

// TestFutureWaitThenSettle: a declared waiter is woken by the settle.
func TestFutureWaitThenSettle(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"no-ctx", context.Background()},
		{"ctx", func() context.Context {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			return ctx
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFuture()
			done := waitAsync(t, f, tc.ctx)
			f.complete(TaskResult{Value: 42})
			if r := recv(t, done); r.err != nil || r.res.Value != 42 {
				t.Fatalf("woken Wait = (%v, %v), want (42, nil)", r.res.Value, r.err)
			}
		})
	}
}

// TestFuturePollWhileWaiting: a declared waiter leaves the future pending
// to Poll.
func TestFuturePollWhileWaiting(t *testing.T) {
	f := newFuture()
	done := waitAsync(t, f, context.Background())
	if _, ok := f.Poll(); ok {
		t.Fatal("Poll reported a result while the future was futWaiting")
	}
	f.complete(TaskResult{Value: 43})
	if r := recv(t, done); r.res.Value != 43 {
		t.Fatalf("Wait = %v, want 43", r.res.Value)
	}
}

// TestFutureWithdrawWins: the waiter's ctx fires before any settle, so it
// withdraws (futWaiting → futPending) and no token is owed; the settle that
// follows sends none, and a re-Wait takes the result without blocking.
func TestFutureWithdrawWins(t *testing.T) {
	f := newFuture()
	ctx, cancel := context.WithCancel(context.Background())
	done := waitAsync(t, f, ctx)
	cancel()
	if r := recv(t, done); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("Wait on a cancelled ctx = (%v, %v), want context.Canceled", r.res.Value, r.err)
	}
	if s := f.state.Load(); s != futPending {
		t.Fatalf("state after withdraw = %d, want futPending (%d)", s, futPending)
	}
	f.complete(TaskResult{Value: 44})
	if n := len(f.sem); n != 0 {
		t.Fatalf("settle after a withdraw left %d token(s) in sem, want 0", n)
	}
	res, err := f.Wait(ctx) // settled: returns the result although ctx is done
	if err != nil || res.Value != 44 {
		t.Fatalf("re-Wait after settle = (%v, %v), want (44, nil)", res.Value, err)
	}
}

// TestFutureSettleWins: the waiter's ctx fires, but the settle swaps
// futWaiting out before the waiter can withdraw, so the waiter must take the
// token it is owed and return the result. One P makes the order
// deterministic: the waiter cannot run between cancel and complete.
func TestFutureSettleWins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := newFuture()
	ctx, cancel := context.WithCancel(context.Background())
	done := waitAsync(t, f, ctx)
	cancel()
	f.complete(TaskResult{Value: 45})
	if r := recv(t, done); r.err != nil || r.res.Value != 45 {
		t.Fatalf("Wait whose settle beat its withdraw = (%v, %v), want (45, nil)", r.res.Value, r.err)
	}
	// Both halves are done and the shell is recycled: sem must be empty.
	if n := len(f.sem); n != 0 {
		t.Fatalf("recycled shell holds %d token(s), want 0", n)
	}
}

// TestFutureCancelRacesSettle races a waiter's ctx against the settle from
// separate goroutines. Whichever wins, the result is delivered exactly once
// (a withdrawn waiter re-Waits for it) and the recycled shell's sem is
// empty. Run under -race, this is the protocol's interleaving check.
func TestFutureCancelRacesSettle(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	var withdrawn int
	for i := 0; i < iters; i++ {
		f := newFuture()
		ctx, cancel := context.WithCancel(context.Background())
		done := waitAsync(t, f, ctx)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); f.complete(TaskResult{Value: i}) }()
		r := recv(t, done)
		if r.err != nil {
			if !errors.Is(r.err, context.Canceled) {
				t.Fatalf("iteration %d: Wait error %v, want nil or context.Canceled", i, r.err)
			}
			withdrawn++
			r.res, r.err = f.Wait(context.Background())
		}
		if r.err != nil || r.res.Value != i {
			t.Fatalf("iteration %d: result (%v, %v), want (%d, nil)", i, r.res.Value, r.err, i)
		}
		wg.Wait()
		if s, n := f.state.Load(), len(f.sem); s != futPending || n != 0 {
			t.Fatalf("iteration %d: recycled shell has state %d and %d token(s), want futPending and 0", i, s, n)
		}
	}
	t.Logf("%d of %d waiters withdrew before the settle", withdrawn, iters)
}
