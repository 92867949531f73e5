// Package client speaks the kstmd wire protocol: Dial a server, Do a task
// and get its value back, or DoAsync many tasks and let them pipeline over
// one connection — requests carry ids, responses return out of order, and a
// single reader goroutine settles each pending call as its frame arrives.
// Every task travels as one request frame; batching is DoAsync's flush
// coalescing, which lets concurrent and pipelined senders share one write
// syscall.
//
// Server statuses surface as errors a handler can branch on:
//
//	res, err := c.Do(ctx, kstm.Task{Key: k, Op: kstm.OpLookup, Arg: k})
//	switch {
//	case errors.Is(err, client.ErrBusy):       // shed: back off and retry
//	case errors.Is(err, client.ErrCancelled):  // abandoned before execution
//	case errors.Is(err, client.ErrStopped):    // server draining: fail over
//	}
//
// For fan-out traffic, Pool stripes calls over several connections.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kstm"
	"kstm/internal/wire"
)

// Errors mapped from response statuses (DESIGN.md "Network front-end").
var (
	// ErrBusy: the server shed the request (reject-mode backpressure).
	// Retry after backoff; the task was never queued.
	ErrBusy = errors.New("client: server busy")
	// ErrCancelled: the task was abandoned before execution (the
	// connection's server-side context was cancelled mid-queue).
	ErrCancelled = errors.New("client: task cancelled before execution")
	// ErrStopped: the server is draining or stopped.
	ErrStopped = errors.New("client: server stopping")
	// ErrBadRequest: the server rejected the request as malformed.
	ErrBadRequest = errors.New("client: bad request")
	// ErrClosed: the connection is closed (locally, by the peer, or by a
	// protocol error); pending calls settle with it, wrapped around the
	// underlying cause.
	ErrClosed = errors.New("client: connection closed")
	// ErrDeadlineExpired: the request's propagated deadline expired while
	// the task sat in the server's queue; it was shed without executing.
	// Retrying with the same budget is pointless — raise the deadline or
	// treat the work as abandoned.
	ErrDeadlineExpired = errors.New("client: deadline expired in server queue")
	// ErrNoHealthyConn: every pool connection is down with its circuit
	// breaker open (no probe due yet). Fail-fast analogue of ErrBusy for
	// transport health; retryable, since a probe may revive a slot any
	// moment.
	ErrNoHealthyConn = errors.New("client: no healthy connection (breaker open)")
)

// ServerError is a workload hard error relayed from the server.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// BusyError is the rich form of ErrBusy carrying the server's retry-after
// hint (admission control answers StatusBusy with the time until the next
// token). errors.Is(err, ErrBusy) matches it, so existing busy handling
// keeps working; DoRetry uses the hint as its backoff floor.
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	return fmt.Sprintf("client: server busy (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrBusy) succeed for BusyError values.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// Result is one completed task's payload.
type Result struct {
	// Value is the task's value as decoded from the wire: nil, bool,
	// uint64, int64, float64 or []byte.
	Value any
	// Wait and Exec are the executor-side queue-wait and service times.
	Wait, Exec time.Duration
}

// Call is one pending request (the client-side Future).
type Call struct {
	id   uint64
	done chan struct{}
	res  Result
	err  error
}

// Done returns a channel closed when the response has arrived.
func (c *Call) Done() <-chan struct{} { return c.done }

// Wait blocks for the response or ctx. Like Future.Wait, a ctx.Err() return
// abandons only the wait: the request stays in flight on the server, which
// may still execute it.
func (c *Call) Wait(ctx context.Context) (Result, error) {
	select {
	case <-c.done:
		return c.res, c.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Option configures Dial.
type Option func(*options)

type options struct {
	dialTimeout time.Duration
}

// WithDialTimeout bounds the TCP connect (default 10s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.dialTimeout = d }
}

// Client is one connection to a kstmd server. All methods are safe for
// concurrent use; concurrent calls pipeline over the single connection.
type Client struct {
	conn    net.Conn
	wmu     sync.Mutex // serializes frame writes; guards bw, scratch, needFlush
	bw      *bufio.Writer
	scratch []byte // frame-encoding buffer reused across calls
	// pend counts senders between their declaration of intent and their
	// write: a sender that observes later arrivals skips its Flush and lets
	// the LAST writer in the burst flush once — auto-coalescing that turns N
	// concurrent DoAsync calls into one syscall without any timer.
	pend      atomic.Int64
	needFlush bool // buffered frames awaiting a flush (last writer or ack)
	nextID    atomic.Uint64

	// inflight counts registered-but-unsettled calls; with unflushed (the
	// requests sitting in bw since the last Flush, guarded by wmu) it gives
	// the burst's last writer the observed wire depth:
	// inflight - unflushed ≥ coalesceMinWire means enough responses are
	// still due that the reader's ack-flush (flushPending) will move these
	// frames soon — so the writer skips its syscall and lets arriving acks
	// clock the flushes, adaptively batching sequential pipelined senders
	// the pend burst counter cannot see. The writer re-checks the depth
	// AFTER setting flushPending (store-then-recheck) against the reader's
	// decrement-then-load in settleResp: one side always sees the other, so
	// a deferred flush can never strand.
	inflight     atomic.Int64
	unflushed    int
	flushPending atomic.Bool
	// flushTimer is the deferral's escape hatch, armed once per defer cycle
	// (guarded by wmu): the responses still due may be slow — a long task,
	// or one held behind a busy worker — so a purely ack-clocked flush could
	// leave deferred frames unsent until they arrive. The timer bounds how
	// long a deferred frame can sit at coalesceMaxDelay regardless of how
	// slowly the peer answers.
	flushTimer *time.Timer

	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool
	err     error // settled cause, wrapped in ErrClosed

	// budget is the connection's shared retry budget (DoRetry spends it;
	// successes refund it). A Client created by a Pool shares the POOL's
	// budget instead, so a fleet of striped connections throttles as one.
	budget *retryBudget

	readerDone chan struct{}
}

// Dial connects to a kstmd server.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{dialTimeout: 10 * time.Second}
	for _, opt := range opts {
		opt(&o)
	}
	conn, err := net.DialTimeout("tcp", addr, o.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, e.g. a pipe in
// tests) and starts its reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriterSize(conn, 32*1024),
		pending:    make(map[uint64]*Call),
		budget:     newRetryBudget(),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// retrySpend / retryRefund implement retryBudgeter over the client's budget.
func (c *Client) retrySpend() bool { return c.budget.retrySpend() }
func (c *Client) retryRefund()     { c.budget.retryRefund() }

// RetryStats reports the client's retry-budget activity.
func (c *Client) RetryStats() RetryStats { return c.budget.stats() }

// reqDeadline derives the wire deadline from the caller's context: the
// remaining budget, as relative nanoseconds, so the server can shed the task
// if it is still queued past it (DESIGN.md §10.1). Contexts without a
// deadline propagate none. A context already past its deadline returns
// expired=true — the caller bails with ctx.Err() before touching the wire.
func reqDeadline(ctx context.Context) (ns uint64, expired bool) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	rem := time.Until(d)
	if rem <= 0 {
		return 0, true
	}
	return uint64(rem), false
}

// DoAsync sends one task and returns its pending Call. ctx bounds only the
// send; pass it (or another) to Call.Wait for the response. If ctx fires
// while the frame is mid-write (a full send buffer under a stalled server),
// the connection is torn down — a partially written frame is unrecoverable
// on a length-prefixed stream — and pending calls settle with ErrClosed.
//
// When ctx carries a deadline, its remaining budget rides with the request
// (DESIGN.md §10.1): a server whose queue outlives the budget sheds the task
// without executing it (the call settles with ErrDeadlineExpired) instead of
// burning a worker on a result nobody is waiting for.
func (c *Client) DoAsync(ctx context.Context, t kstm.Task) (*Call, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadlineNS, expired := reqDeadline(ctx)
	if expired {
		return nil, context.DeadlineExceeded
	}
	call := &Call{id: c.nextID.Add(1), done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[call.id] = call
	c.inflight.Add(1)
	c.mu.Unlock()

	c.pend.Add(1)
	c.wmu.Lock()
	// Re-check after the (possibly long) wait for the write lock, and make
	// a cancellation mid-write unblock the socket: the deadline poisons
	// only writes, and only until stop() disarms it. Both the cancellation
	// plumbing and its allocations are skipped for uncancellable contexts,
	// and the frame is built in a scratch buffer reused under wmu — the
	// pipelining hot path stays allocation-free per call.
	if err := ctx.Err(); err != nil {
		ferr := c.abandonWriteLocked()
		c.wmu.Unlock()
		c.forget(call.id)
		if ferr != nil {
			c.fail(ferr)
		}
		return nil, err
	}
	c.scratch = wire.AppendRequest(c.scratch[:0], wire.Request{
		ID: call.id, Key: t.Key, Op: uint8(t.Op), Arg: t.Arg,
		DeadlineNS: deadlineNS,
	})
	err := c.writeLocked(ctx, c.scratch) //kstmvet:ignore socket writes serialize under wmu by design; the write-poison handshake bounds the wait
	c.wmu.Unlock()
	if err != nil {
		c.forget(call.id)
		c.fail(err)
		// The connection is gone either way (a partial frame corrupts the
		// stream), but a write the CALLER's context interrupted reports as
		// that context's error, so deadline/cancel branching in handlers
		// stays correct.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %w", ErrClosed, err)
	}
	return call, nil
}

// Adaptive-coalescing thresholds: a burst's last writer defers its flush to
// the reader's ack-clock only while at least coalesceMinWire responses are
// still due (so an ack that triggers the flush is guaranteed to arrive) and
// at most coalesceMaxUnflushed requests sit buffered (bounding the latency
// a deferred frame can accrue behind a slow server).
const (
	coalesceMinWire      = 2
	coalesceMaxUnflushed = 64
	// coalesceMaxDelay bounds the extra latency a deferred flush can add
	// when the expected ack never comes (see Client.flushTimer). At a few
	// loopback RTTs it is invisible in the pipelined steady state the
	// deferral targets, where acks flush far sooner.
	coalesceMaxDelay = 200 * time.Microsecond
)

// writeLocked writes buf (one request frame) into the connection's
// buffered writer under wmu, poisoning the socket write if ctx fires
// mid-write, and flushes — unless the flush can be safely deferred:
//
//   - another sender has already declared intent (c.pend): the LAST writer
//     of the burst flushes once for everyone — concurrent senders coalesce
//     with no timer and no added latency;
//   - the observed wire depth (inflight - unflushed) is at least
//     coalesceMinWire: enough responses are still due that the reader's
//     ack-flush will carry these frames, so sequential pipelined senders —
//     invisible to the pend burst counter — coalesce too, clocked by acks.
//
// The deferral re-checks the wire depth after publishing flushPending; see
// the field comment for why that makes a stranded flush impossible.
func (c *Client) writeLocked(ctx context.Context, buf []byte) error {
	var poisoned chan struct{}
	var stop func() bool
	if ctx.Done() != nil {
		poisoned = make(chan struct{})
		stop = context.AfterFunc(ctx, func() {
			c.conn.SetWriteDeadline(time.Unix(1, 0)) // long past: fail the write now
			close(poisoned)
		})
	}
	_, err := c.bw.Write(buf)
	if err == nil {
		c.unflushed++
		if c.pend.Add(-1) > 0 {
			c.needFlush = true
		} else if c.inflight.Load()-int64(c.unflushed) >= coalesceMinWire &&
			c.unflushed <= coalesceMaxUnflushed {
			c.needFlush = true
			if !c.flushPending.Swap(true) {
				if c.flushTimer == nil {
					c.flushTimer = time.AfterFunc(coalesceMaxDelay, c.timerFlush)
				} else {
					c.flushTimer.Reset(coalesceMaxDelay)
				}
			}
			if c.inflight.Load()-int64(c.unflushed) < coalesceMinWire {
				// Store-then-recheck lost: the outstanding responses raced
				// in before the flag was visible. Their readers may have
				// missed it, so nobody would ever ack-flush — do it now.
				c.flushPending.Store(false)
				c.needFlush = false
				c.unflushed = 0
				err = c.bw.Flush()
			}
		} else {
			c.needFlush = false
			c.flushPending.Store(false)
			c.unflushed = 0
			err = c.bw.Flush()
		}
	} else {
		c.pend.Add(-1)
	}
	if stop != nil {
		if !stop() {
			// The poison fired (perhaps after the write already
			// succeeded); wait for it to land before clearing, so the
			// reset below cannot be overwritten and leak a dead deadline
			// to the next caller.
			<-poisoned
		}
		c.conn.SetWriteDeadline(time.Time{})
	}
	return err
}

// abandonWriteLocked settles the coalescing accounting for a sender that
// declared intent but wrote nothing (its ctx died waiting for wmu): if it
// was the burst's last writer and earlier frames await a flush, it must
// flush them — otherwise they would sit in the buffer until the next send.
func (c *Client) abandonWriteLocked() error {
	if c.pend.Add(-1) > 0 || !c.needFlush {
		return nil
	}
	c.needFlush = false
	c.flushPending.Store(false)
	c.unflushed = 0
	return c.bw.Flush()
}

// ackFlush is the reader-side half of adaptive coalescing: each arriving
// response checks whether a writer deferred its flush to the ack-clock and,
// if so, performs it. Flushing whatever has accumulated (not
// one-frame-per-ack) keeps the pipeline self-clocking — every response
// batch pushes the full backlog, so throughput never stop-and-goes waiting
// for the wire to drain. The fast path — nothing deferred — is one atomic
// load.
//
// TryLock, never Lock: the reader must stay available to drain the socket
// even while a writer holds wmu blocked in a Flush the peer has yet to
// absorb — a blocking acquire here closes a deadlock cycle (writer waits on
// peer read, peer waits on our read, reader waits on wmu). A failed try is
// safe to skip: the writer holding wmu either flushes before releasing or
// re-defers with its depth recheck, which (running after this response's
// decrement) guarantees more responses — and so more ackFlush attempts —
// are still due.
func (c *Client) ackFlush() {
	if !c.flushPending.Load() {
		return
	}
	if !c.wmu.TryLock() {
		return
	}
	c.flushDeferredLocked()
}

// timerFlush is flushTimer's callback: the deferral's bounded escape hatch
// when the ack-clock stalls. Unlike the reader it may block on wmu — it
// runs on its own goroutine, so it cannot close the reader's deadlock
// cycle.
func (c *Client) timerFlush() {
	if !c.flushPending.Load() {
		return
	}
	c.wmu.Lock()
	c.flushDeferredLocked()
}

// flushDeferredLocked performs (and disarms) a deferred flush; the caller
// holds wmu, which is released here.
func (c *Client) flushDeferredLocked() {
	c.flushPending.Store(false)
	if c.flushTimer != nil {
		c.flushTimer.Stop()
	}
	var err error
	if c.needFlush {
		c.needFlush = false
		c.unflushed = 0
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// forget drops a call that was registered but never sent. The inflight
// decrement is conditional on the entry still being present — a response
// that raced in already settled (and decremented) it.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	if _, ok := c.pending[id]; ok {
		delete(c.pending, id)
		c.inflight.Add(-1)
	}
	c.mu.Unlock()
}

// broken reports whether the client has failed and will refuse new calls.
func (c *Client) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Do sends one task and waits for its result: the network analogue of
// kstm.Executor.Submit. The returned error is the task's completion error
// (nil means the transaction committed server-side) or ctx's.
func (c *Client) Do(ctx context.Context, t kstm.Task) (Result, error) {
	call, err := c.DoAsync(ctx, t)
	if err != nil {
		return Result{}, err
	}
	return call.Wait(ctx)
}

// DoBool is Do for boolean-valued dictionary operations (insert's "was
// absent", delete's "was present", lookup's hit).
func (c *Client) DoBool(ctx context.Context, t kstm.Task) (bool, error) {
	res, err := c.Do(ctx, t)
	if err != nil {
		return false, err
	}
	b, ok := res.Value.(bool)
	if !ok {
		return false, fmt.Errorf("client: task value is %T, want bool", res.Value)
	}
	return b, nil
}

// Close tears the connection down; pending calls settle with ErrClosed.
func (c *Client) Close() error {
	c.fail(net.ErrClosed)
	<-c.readerDone
	return nil
}

// fail settles the client exactly once: marks it closed, closes the socket
// (unblocking the reader) and fails every pending call.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = fmt.Errorf("%w: %w", ErrClosed, cause)
	pend := c.pending
	c.pending = nil
	err := c.err
	c.mu.Unlock()
	c.conn.Close()
	for _, call := range pend {
		call.err = err
		close(call.done)
	}
}

// readLoop decodes response frames and settles their calls. Any frame type
// other than TypeResponse is a protocol error that fails the connection.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, 32*1024)
	scratch := make([]byte, 256)
	for {
		frame, err := wire.ReadFrame(br, &scratch)
		if err != nil {
			c.fail(err)
			return
		}
		if frame.Type != wire.TypeResponse {
			c.fail(fmt.Errorf("unexpected frame type %d", frame.Type))
			return
		}
		c.settleResp(frame.Resp)
	}
}

// settleResp completes the pending call a response answers. The inflight
// decrement precedes the ackFlush flag load — the reader's half of the
// store-then-recheck pairing with writeLocked's deferral.
func (c *Client) settleResp(resp wire.Response) {
	c.mu.Lock()
	call := c.pending[resp.ID]
	if call != nil {
		delete(c.pending, resp.ID)
		c.inflight.Add(-1)
	}
	c.mu.Unlock()
	c.ackFlush()
	if call == nil {
		// A response for a call we no longer track — a server bug
		// or duplicate; drop it rather than kill the connection.
		return
	}
	call.res = Result{
		Value: resp.Value,
		Wait:  time.Duration(resp.WaitNS),
		Exec:  time.Duration(resp.ExecNS),
	}
	call.err = statusError(resp)
	close(call.done)
}

// statusError maps a response status to the package's error vocabulary.
func statusError(resp wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusBusy:
		if resp.WaitNS != 0 {
			// Admission control's retry-after hint rides in WaitNS.
			return &BusyError{RetryAfter: time.Duration(resp.WaitNS)}
		}
		return ErrBusy
	case wire.StatusCancelled:
		return ErrCancelled
	case wire.StatusStopped:
		return ErrStopped
	case wire.StatusDeadline:
		return ErrDeadlineExpired
	case wire.StatusBadRequest:
		if resp.Msg != "" {
			return fmt.Errorf("%w: %s", ErrBadRequest, resp.Msg)
		}
		return ErrBadRequest
	default:
		return &ServerError{Msg: resp.Msg}
	}
}
