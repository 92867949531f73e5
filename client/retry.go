package client

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"kstm"
	"kstm/internal/wire"
)

// Doer runs one task to completion: *Client and *Pool both implement it,
// so helpers like DoRetry work over a single connection or a striped pool.
type Doer interface {
	Do(ctx context.Context, t kstm.Task) (Result, error)
}

// isRetryable is the package's single transient-error classification: the
// predicate DoRetry, the pool's circuit breaker, and connection ejection all
// share (DESIGN.md §10.3). An error is retryable when trying again can
// plausibly succeed:
//
//   - ErrBusy: shed load — the one status that MEANS "try again";
//   - transport failures before a response: connection reset/EOF/truncated
//     frame (ErrClosed wraps the cause), a timed-out dial, or every pool
//     connection breaker-open (the server may be back any moment);
//
// and NOT retryable when the outcome is a decision: success, a workload
// error, StatusStopped (fail over instead), StatusCancelled,
// StatusBadRequest (resending the same bytes cannot help),
// StatusDeadline (hopeless unless the caller raises its budget), or the
// caller's own context expiring.
func isRetryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrBusy):
		return true
	case errors.Is(err, ErrStopped), errors.Is(err, ErrCancelled),
		errors.Is(err, ErrBadRequest), errors.Is(err, ErrDeadlineExpired):
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	}
	var se *ServerError
	if errors.As(err, &se) {
		return false
	}
	// Transport class: the connection died (or never came up) before a
	// response.
	if mayHaveReachedServer(err) || errors.Is(err, ErrNoHealthyConn) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// mayHaveReachedServer reports the transport failures that can strike a call
// already in flight — ErrClosed wraps the cause for those — so the server may
// have executed the request and only its response was lost. Failures that
// precede the send (ErrBusy, ErrNoHealthyConn, a refused or timed-out dial)
// are not in this class.
func mayHaveReachedServer(err error) bool {
	return errors.Is(err, ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrTruncated) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// replaySafe reports whether DoRetry may re-send t after err. OpAdd and
// OpTopK are not idempotent: replaying one whose response was lost would
// apply it twice, so they are retried only after failures that provably
// preceded the send (DESIGN.md §10.3). Every other opcode is idempotent.
func replaySafe(t kstm.Task, err error) bool {
	if t.Op != kstm.OpAdd && t.Op != kstm.OpTopK {
		return true
	}
	return !mayHaveReachedServer(err)
}

// isTransport reports the subset of retryable errors that indict the
// CONNECTION rather than the server's load: these feed the pool's circuit
// breaker, while ErrBusy (a healthy connection doing its job) must not.
func isTransport(err error) bool {
	return isRetryable(err) && !errors.Is(err, ErrBusy)
}

// Retry-budget constants, per the gRPC retry-throttling design: a bucket of
// budgetMax milli-tokens shared by everything retrying through one Client or
// Pool. A retry costs a full token and is allowed only while the bucket is
// above half; each success refunds a tenth of a token (capped at full). A
// fleet hammering a failing server drains the bucket after ~5 retries and
// must then earn retries back with successes — the retry storm that keeps a
// recovering server down never forms.
const (
	budgetMax    = 10_000 // 10 tokens, in milli-tokens
	budgetCost   = 1_000  // one token per retry
	budgetRefund = 100    // 0.1 token per success
)

// retryBudget is the shared token bucket. The zero value is invalid; use
// newRetryBudget.
type retryBudget struct {
	tokens atomic.Int64 // milli-tokens remaining
	spent  atomic.Uint64
	denied atomic.Uint64
}

func newRetryBudget() *retryBudget {
	b := &retryBudget{}
	b.tokens.Store(budgetMax)
	return b
}

// retrySpend asks for permission to retry; false means the budget is
// exhausted and the caller should surface its error instead.
func (b *retryBudget) retrySpend() bool {
	for {
		cur := b.tokens.Load()
		if cur <= budgetMax/2 {
			b.denied.Add(1)
			return false
		}
		if b.tokens.CompareAndSwap(cur, cur-budgetCost) {
			b.spent.Add(1)
			return true
		}
	}
}

// retryRefund credits a success back into the budget.
func (b *retryBudget) retryRefund() {
	for {
		cur := b.tokens.Load()
		next := min(cur+budgetRefund, budgetMax)
		if next == cur || b.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// stats snapshots the budget for observability.
func (b *retryBudget) stats() RetryStats {
	return RetryStats{
		Spent:  b.spent.Load(),
		Denied: b.denied.Load(),
		Tokens: float64(b.tokens.Load()) / budgetCost,
	}
}

// RetryStats reports a Client's or Pool's retry-budget activity.
type RetryStats struct {
	// Spent counts retries the budget allowed; Denied counts retries it
	// refused (the caller saw its error instead).
	Spent, Denied uint64
	// Tokens is the current budget level (budget full = 10).
	Tokens float64
}

// retryBudgeter is the optional Doer facet DoRetry consults: *Client and
// *Pool implement it over their own budgets.
type retryBudgeter interface {
	retrySpend() bool
	retryRefund()
}

// Retry backoff bounds: full-jitter exponential, doubling from base to cap.
// The base sits just above a loopback RTT so the first retry is nearly
// free; the cap keeps a persistently busy server from parking callers for
// long stretches of their deadline.
const (
	retryBaseDelay = 500 * time.Microsecond
	retryMaxDelay  = 50 * time.Millisecond
)

// DoRetry runs one task, retrying transient failures — per isRetryable:
// shed load (ErrBusy) and transport failures before a response — with
// jittered exponential backoff until the context expires. Every other
// outcome (success, workload error, ErrStopped, ErrCancelled, a queue-
// deadline shed) returns immediately: retrying those either cannot help or
// is the caller's policy decision.
//
// OpAdd and OpTopK are at most once: after a failure that may have reached
// the server (the connection died with the call in flight) DoRetry returns
// the error instead of replaying them, since the server may already have
// applied the op (replaySafe).
//
// Retries draw on the Doer's shared budget when it has one (*Client and
// *Pool do): when the budget runs dry the error surfaces instead of
// retrying, so a fleet cannot retry-storm a recovering server. A server-
// supplied retry-after hint (BusyError, from admission control) raises the
// backoff floor for that attempt.
//
// This is the loop every busy-aware handler hand-rolled (see DESIGN.md §5.2
// on shed-vs-deadline): shed ≠ dead — back off and try again; retire only
// on your own deadline.
func DoRetry(ctx context.Context, d Doer, t kstm.Task) (Result, error) {
	budget, budgeted := d.(retryBudgeter)
	delay := retryBaseDelay
	for {
		res, err := d.Do(ctx, t)
		if err == nil {
			if budgeted {
				budget.retryRefund()
			}
			return res, nil
		}
		if !isRetryable(err) || !replaySafe(t, err) {
			return res, err
		}
		if budgeted && !budget.retrySpend() {
			return res, err
		}
		// Full jitter over [delay/2, delay]: desynchronizes a fleet of
		// shed clients so their retries don't arrive as one thundering
		// herd exactly when the queue drained.
		wait := delay/2 + time.Duration(rand.Int64N(int64(delay/2)+1))
		var be *BusyError
		if errors.As(err, &be) && be.RetryAfter > wait {
			wait = be.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if delay < retryMaxDelay {
			delay *= 2
			if delay > retryMaxDelay {
				delay = retryMaxDelay
			}
		}
	}
}
