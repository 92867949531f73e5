package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"syscall"
	"testing"
	"time"

	"kstm"
	"kstm/internal/wire"
)

// timeoutErr implements net.Error with Timeout() == true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "fake timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestIsRetryableClassification is the satellite's single-predicate table:
// every call site (DoRetry, breaker feed, pool ejection) shares exactly this
// classification, so the table IS the transient-error contract.
func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
		transport bool
	}{
		{"nil", nil, false, false},
		{"busy", ErrBusy, true, false},
		{"busy-hint", &BusyError{RetryAfter: time.Millisecond}, true, false},
		{"wrapped-busy", fmt.Errorf("op: %w", ErrBusy), true, false},
		{"stopped", ErrStopped, false, false},
		{"cancelled", ErrCancelled, false, false},
		{"bad-request", ErrBadRequest, false, false},
		{"deadline-shed", ErrDeadlineExpired, false, false},
		{"ctx-canceled", context.Canceled, false, false},
		{"ctx-deadline", context.DeadlineExceeded, false, false},
		{"server-error", &ServerError{Msg: "boom"}, false, false},
		{"closed", ErrClosed, true, true},
		{"closed-wrapping-eof", fmt.Errorf("%w: %w", ErrClosed, io.EOF), true, true},
		{"no-healthy-conn", ErrNoHealthyConn, true, true},
		{"eof", io.EOF, true, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true, true},
		{"truncated-frame", wire.ErrTruncated, true, true},
		{"net-closed", net.ErrClosed, true, true},
		{"conn-reset", syscall.ECONNRESET, true, true},
		{"epipe", syscall.EPIPE, true, true},
		{"conn-refused", syscall.ECONNREFUSED, true, true},
		{"dial-timeout", &net.OpError{Op: "dial", Err: timeoutErr{}}, true, true},
		{"unknown", errors.New("mystery"), false, false},
	}
	for _, c := range cases {
		if got := isRetryable(c.err); got != c.retryable {
			t.Errorf("isRetryable(%s) = %v, want %v", c.name, got, c.retryable)
		}
		if got := isTransport(c.err); got != c.transport {
			t.Errorf("isTransport(%s) = %v, want %v", c.name, got, c.transport)
		}
	}
}

// fakeDoer scripts Do outcomes and implements retryBudgeter over a real
// budget, so DoRetry's gating is observable.
type fakeDoer struct {
	errs   []error // consumed in order; past the end -> nil
	calls  int
	budget *retryBudget
}

func (f *fakeDoer) Do(ctx context.Context, t kstm.Task) (Result, error) {
	i := f.calls
	f.calls++
	if i < len(f.errs) {
		return Result{}, f.errs[i]
	}
	return Result{Value: true}, nil
}

func (f *fakeDoer) retrySpend() bool { return f.budget.retrySpend() }
func (f *fakeDoer) retryRefund()     { f.budget.retryRefund() }

// TestDoRetryRetriesTransient: retryable failures are retried until success;
// non-retryable ones surface immediately.
func TestDoRetryRetriesTransient(t *testing.T) {
	d := &fakeDoer{errs: []error{ErrBusy, io.EOF}, budget: newRetryBudget()}
	res, err := DoRetry(context.Background(), d, kstm.Task{Key: 1})
	if err != nil {
		t.Fatalf("DoRetry = %v", err)
	}
	if v, _ := res.Value.(bool); !v {
		t.Fatalf("DoRetry result = %+v", res)
	}
	if d.calls != 3 {
		t.Fatalf("Do called %d times, want 3", d.calls)
	}

	d = &fakeDoer{errs: []error{ErrBadRequest}, budget: newRetryBudget()}
	if _, err := DoRetry(context.Background(), d, kstm.Task{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("DoRetry = %v, want ErrBadRequest", err)
	}
	if d.calls != 1 {
		t.Fatalf("non-retryable error retried (%d calls)", d.calls)
	}
}

// TestDoRetryAtMostOnceOps: for every (op, first error) pair, count how many
// times DoRetry calls Do when the first attempt fails and the second would
// succeed. OpAdd and OpTopK are not idempotent, so a failure that may have
// reached the server (the connection died with the call in flight) must not
// replay them — a lost ack would otherwise apply the op twice. Failures that
// precede the send retry for every op, and idempotent ops retry as before.
func TestDoRetryAtMostOnceOps(t *testing.T) {
	failures := []struct {
		err      error
		inFlight bool // the request may have reached the server
	}{
		{ErrClosed, true},
		{fmt.Errorf("%w: %w", ErrClosed, io.EOF), true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{wire.ErrTruncated, true},
		{syscall.ECONNRESET, true},
		{syscall.EPIPE, true},
		{net.ErrClosed, true},
		{ErrBusy, false},
		{ErrNoHealthyConn, false},
		{syscall.ECONNREFUSED, false},
		{&net.OpError{Op: "dial", Err: timeoutErr{}}, false},
	}
	ops := []kstm.Op{
		kstm.OpInsert, kstm.OpDelete, kstm.OpLookup, kstm.OpNoop,
		kstm.OpAdd, kstm.OpMax, kstm.OpMin, kstm.OpTopK,
	}
	for _, op := range ops {
		atMostOnce := op == kstm.OpAdd || op == kstm.OpTopK
		for _, f := range failures {
			wantCalls := 2
			if atMostOnce && f.inFlight {
				wantCalls = 1
			}
			d := &fakeDoer{errs: []error{f.err}, budget: newRetryBudget()}
			_, err := DoRetry(context.Background(), d, kstm.Task{Key: 1, Op: op, Arg: 1})
			if d.calls != wantCalls {
				t.Errorf("%v after %v: Do called %d times, want %d", op, f.err, d.calls, wantCalls)
			}
			if wantCalls == 1 && !errors.Is(err, f.err) {
				t.Errorf("%v after %v: DoRetry = %v, want the transport error", op, f.err, err)
			}
			if wantCalls == 2 && err != nil {
				t.Errorf("%v after %v: DoRetry = %v, want success on retry", op, f.err, err)
			}
		}
	}
}

// TestDoRetryBudgetExhaustion: once the shared budget dips to half, retries
// are denied and the transient error surfaces; successes refund it.
func TestDoRetryBudgetExhaustion(t *testing.T) {
	b := newRetryBudget()
	// budgetMax/budgetCost = 10 tokens; retries allowed while > 5 tokens
	// remain, so exactly 5 spends succeed back to back.
	allowed := 0
	for b.retrySpend() {
		allowed++
	}
	if allowed != 5 {
		t.Fatalf("fresh budget allowed %d retries, want 5", allowed)
	}
	st := b.stats()
	if st.Spent != 5 || st.Denied != 1 {
		t.Fatalf("stats = %+v, want Spent 5, Denied 1", st)
	}
	// A drained budget makes DoRetry surface the transient error.
	d := &fakeDoer{errs: []error{ErrBusy, ErrBusy}, budget: b}
	if _, err := DoRetry(context.Background(), d, kstm.Task{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("budget-denied DoRetry = %v, want ErrBusy", err)
	}
	if d.calls != 1 {
		t.Fatalf("denied retry still called Do %d times", d.calls)
	}
	// 50 successes refund 5 tokens; retries flow again.
	for i := 0; i < 50; i++ {
		b.retryRefund()
	}
	if !b.retrySpend() {
		t.Fatal("refunded budget still denies retries")
	}
}

// TestDoRetryHonorsContext: an expired context stops the retry loop with the
// context's error rather than spinning. The doer has no retry budget and
// never succeeds, so the context is the loop's only way out: a budgeted doer
// runs dry after 5 retries, whose jittered waits (7.75–15.5 ms) can end the
// loop with ErrBusy before a 10 ms context fires.
func TestDoRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	d := &busyDoer{busyFor: math.MaxInt}
	if _, err := DoRetry(ctx, d, kstm.Task{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DoRetry under dead ctx = %v", err)
	}
}

// TestBreakerStateMachine drives closed -> open -> half-open -> closed and
// the re-open path, pinning the single-probe contract.
func TestBreakerStateMachine(t *testing.T) {
	var b breaker
	if !b.allow() {
		t.Fatal("zero-value breaker must be closed")
	}
	// Two failures: still closed (threshold is 3).
	b.recordFailure()
	b.recordFailure()
	if !b.allow() {
		t.Fatal("breaker tripped below threshold")
	}
	b.recordFailure()
	if b.allow() {
		t.Fatal("breaker allowed a call right after tripping")
	}
	if got := b.snapshot(); got.State != BreakerOpen || got.Tripped != 1 {
		t.Fatalf("snapshot after trip = %+v", got)
	}
	// After the cooldown exactly one caller wins the half-open probe.
	waitForProbe(t, &b)
	if b.allow() {
		t.Fatal("second caller claimed the half-open probe")
	}
	// Probe success closes; traffic flows.
	b.recordSuccess()
	if got := b.snapshot(); got.State != BreakerClosed {
		t.Fatalf("state after probe success = %v", got.State)
	}
	if !b.allow() {
		t.Fatal("closed breaker refused a call")
	}
	// Trip again: a failed probe re-opens immediately (one failure, not
	// three — half-open failures are conclusive).
	b.recordFailure()
	b.recordFailure()
	b.recordFailure()
	waitForProbe(t, &b)
	b.recordFailure()
	if got := b.snapshot(); got.State != BreakerOpen || got.Tripped != 3 {
		t.Fatalf("snapshot after failed probe = %+v (want open, 3 trips)", got)
	}
}

// waitForProbe polls allow until the breaker's cooldown grants the probe.
func waitForProbe(t *testing.T, b *breaker) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !b.allow() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never granted its half-open probe")
		}
		time.Sleep(time.Millisecond)
	}
	if got := b.snapshot().State; got != BreakerHalfOpen {
		t.Fatalf("state after granted probe = %v, want half-open", got)
	}
}

// TestBreakerStateStrings pins the observability labels.
func TestBreakerStateStrings(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed": BreakerClosed, "open": BreakerOpen, "half-open": BreakerHalfOpen,
		"unknown": BreakerState(99),
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s, want)
		}
	}
}
