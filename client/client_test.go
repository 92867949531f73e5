package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"kstm"
	"kstm/internal/wire"
)

// fakeServer accepts one connection and hands its requests to respond,
// which returns the responses to write (possibly reordered), each as one
// TypeResponse frame.
func fakeServer(t *testing.T, respond func([]wire.Request) []wire.Response, nreq int) string {
	t.Helper()
	return fakeServerFrames(t, func(reqs []wire.Request) []byte {
		var out []byte
		for _, resp := range respond(reqs) {
			var err error
			if out, err = wire.AppendResponse(out, resp); err != nil {
				return nil
			}
		}
		return out
	}, nreq)
}

// fakeServerFrames accepts one connection, reads nreq request frames and
// writes back the raw bytes encode returns for them.
func fakeServerFrames(t *testing.T, encode func([]wire.Request) []byte, nreq int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var reqs []wire.Request
		for len(reqs) < nreq {
			f, err := wire.ReadFrame(conn, nil)
			if err != nil || f.Type != wire.TypeRequest {
				return
			}
			reqs = append(reqs, f.Req)
		}
		if _, err := conn.Write(encode(reqs)); err != nil {
			return
		}
		// Hold the connection open briefly so the client reads everything.
		time.Sleep(50 * time.Millisecond)
	}()
	return ln.Addr().String()
}

// TestOutOfOrderResponses: responses arriving in reverse order must settle
// the right calls — the whole point of carrying request ids.
func TestOutOfOrderResponses(t *testing.T) {
	addr := fakeServer(t, func(reqs []wire.Request) []wire.Response {
		out := make([]wire.Response, 0, len(reqs))
		for i := len(reqs) - 1; i >= 0; i-- {
			out = append(out, wire.Response{
				ID: reqs[i].ID, Status: wire.StatusOK, Value: uint64(reqs[i].Arg),
			})
		}
		return out
	}, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var calls []*Call
	for i := 0; i < 3; i++ {
		call, err := c.DoAsync(ctx, kstm.Task{Key: uint64(i), Arg: uint32(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call)
	}
	for i, call := range calls {
		res, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := res.Value.(uint64); got != uint64(100+i) {
			t.Fatalf("call %d got value %d, want %d (responses crossed)", i, got, 100+i)
		}
	}
}

// TestStatusMapping drives each status through a fake server and checks the
// error vocabulary.
func TestStatusMapping(t *testing.T) {
	statuses := []uint8{wire.StatusBusy, wire.StatusCancelled, wire.StatusStopped, wire.StatusBadRequest, wire.StatusError}
	wants := []error{ErrBusy, ErrCancelled, ErrStopped, ErrBadRequest, nil /* ServerError */}
	addr := fakeServer(t, func(reqs []wire.Request) []wire.Response {
		out := make([]wire.Response, len(reqs))
		for i, r := range reqs {
			out[i] = wire.Response{ID: r.ID, Status: statuses[i], Msg: "m"}
		}
		return out
	}, len(statuses))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	calls := make([]*Call, len(statuses))
	for i := range statuses {
		if calls[i], err = c.DoAsync(ctx, kstm.Task{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, call := range calls {
		_, err := call.Wait(ctx)
		if wants[i] != nil {
			if !errors.Is(err, wants[i]) {
				t.Errorf("status %s: got %v, want %v", wire.StatusName(statuses[i]), err, wants[i])
			}
			continue
		}
		var se *ServerError
		if !errors.As(err, &se) || se.Msg != "m" {
			t.Errorf("StatusError: got %v, want ServerError(m)", err)
		}
	}
}

// TestBatchResponseFailsConn: the client accepts only TypeResponse frames.
// A batch response frame, even one answering every pending call, is a
// protocol error: each call settles with ErrClosed and none with a value.
func TestBatchResponseFailsConn(t *testing.T) {
	addr := fakeServerFrames(t, func(reqs []wire.Request) []byte {
		resps := make([]wire.Response, len(reqs))
		for i, r := range reqs {
			resps[i] = wire.Response{ID: r.ID, Status: wire.StatusOK, Value: true}
		}
		b, _, err := wire.AppendBatchResponses(nil, resps)
		if err != nil {
			return nil
		}
		return b
	}, 3)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	calls := make([]*Call, 3)
	for i := range calls {
		if calls[i], err = c.DoAsync(context.Background(), kstm.Task{Key: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, call := range calls {
		if res, err := call.Wait(ctx); !errors.Is(err, ErrClosed) {
			t.Errorf("call %d: %v, %v; want ErrClosed", i, res.Value, err)
		}
	}
}

// TestPoolReconnects: a pool slot whose connection has failed is redialed
// on its next turn, so one reset does not permanently poison the stripe.
func TestPoolReconnects(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A minimal always-OK server that keeps accepting connections.
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var buf []byte
				for {
					f, err := wire.ReadFrame(conn, nil)
					if err != nil || f.Type != wire.TypeRequest {
						return
					}
					buf, err = wire.AppendResponse(buf[:0], wire.Response{
						ID: f.Req.ID, Status: wire.StatusOK, Value: true,
					})
					if err != nil {
						return
					}
					if _, err := conn.Write(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	p, err := DialPool(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Do(ctx, kstm.Task{Key: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a reset on both slots. Dead connections are ejected and
	// redialed by background probes — callers fail fast (ErrNoHealthyConn)
	// instead of blocking on the dial — so poll until the pool recovers.
	p.slots[0].c.Load().fail(errors.New("simulated reset"))
	p.slots[1].c.Load().fail(errors.New("simulated reset"))
	recoverDeadline := time.Now().Add(5 * time.Second)
	for {
		_, err := p.Do(ctx, kstm.Task{Key: 2})
		if err == nil {
			break
		}
		if !isRetryable(err) {
			t.Fatalf("call after reset: %v, want nil or a retryable error", err)
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("pool did not recover: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Do(ctx, kstm.Task{Key: uint64(i)}); err != nil {
			t.Fatalf("call %d after recovery: %v", i, err)
		}
	}
	// After Close, calls fail and no redial happens.
	p.Close()
	if _, err := p.Do(ctx, kstm.Task{Key: 9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close call: %v, want ErrClosed", err)
	}
}

// TestPendingFailOnPeerClose: when the server vanishes mid-call, pending
// calls settle with ErrClosed instead of hanging.
func TestPendingFailOnPeerClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read one frame, then hang up without answering.
		wire.ReadFrame(conn, nil)
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call, err := c.DoAsync(context.Background(), kstm.Task{Key: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := call.Wait(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// New calls on the dead client fail fast.
	if _, err := c.DoAsync(context.Background(), kstm.Task{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("DoAsync on dead client: %v, want ErrClosed", err)
	}
}

// busyDoer sheds the first busyFor calls with ErrBusy, then succeeds.
type busyDoer struct {
	busyFor int
	calls   int
}

func (d *busyDoer) Do(ctx context.Context, t kstm.Task) (Result, error) {
	d.calls++
	if d.calls <= d.busyFor {
		return Result{}, ErrBusy
	}
	return Result{Value: true}, nil
}

// TestDoRetryBacksOffThroughBusy: shed load is retried until it clears, and
// the eventual result comes back intact.
func TestDoRetryBacksOffThroughBusy(t *testing.T) {
	d := &busyDoer{busyFor: 3}
	res, err := DoRetry(context.Background(), d, kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != true {
		t.Errorf("result value = %v", res.Value)
	}
	if d.calls != 4 {
		t.Errorf("calls = %d, want 4 (3 busy + 1 success)", d.calls)
	}
}

// TestDoRetryStopsAtDeadline: a server that never stops shedding must not
// outlive the caller's deadline, and the deadline surfaces as the caller's
// own ctx error — the shed-vs-deadline split from DESIGN.md §5.2.
func TestDoRetryStopsAtDeadline(t *testing.T) {
	d := &busyDoer{busyFor: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DoRetry(ctx, d, kstm.Task{Key: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("DoRetry held the caller %v past a 30ms deadline", elapsed)
	}
	if d.calls < 2 {
		t.Errorf("calls = %d, want at least one retry before the deadline", d.calls)
	}
}

// TestDoRetryPassesOtherErrorsThrough: only ErrBusy retries — terminal
// statuses and workload errors return on the first call.
func TestDoRetryPassesOtherErrorsThrough(t *testing.T) {
	for _, terminal := range []error{ErrStopped, ErrCancelled, ErrBadRequest, &ServerError{Msg: "boom"}} {
		calls := 0
		d := doerFunc(func(ctx context.Context, t kstm.Task) (Result, error) {
			calls++
			return Result{}, terminal
		})
		if _, err := DoRetry(context.Background(), d, kstm.Task{}); !errors.Is(err, terminal) {
			t.Errorf("err = %v, want %v", err, terminal)
		}
		if calls != 1 {
			t.Errorf("%v: calls = %d, want 1", terminal, calls)
		}
	}
	// And a success needs no retries at all.
	d := &busyDoer{}
	if _, err := DoRetry(context.Background(), d, kstm.Task{}); err != nil || d.calls != 1 {
		t.Errorf("success path: err=%v calls=%d", err, d.calls)
	}
}

type doerFunc func(ctx context.Context, t kstm.Task) (Result, error)

func (f doerFunc) Do(ctx context.Context, t kstm.Task) (Result, error) { return f(ctx, t) }

// TestDoRetryOverWire drives DoRetry against a wire server that answers
// each request as it arrives: one busy response, then OK — the client-side
// contract end to end. (fakeServer batches all requests before responding,
// which would deadlock against DoRetry's sequential retries.)
func TestDoRetryOverWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf []byte
		for n := 0; n < 2; n++ {
			f, err := wire.ReadFrame(conn, nil)
			if err != nil || f.Type != wire.TypeRequest {
				return
			}
			resp := wire.Response{ID: f.Req.ID, Status: wire.StatusBusy, Msg: "server busy"}
			if n == 1 {
				resp = wire.Response{ID: f.Req.ID, Status: wire.StatusOK, Value: true}
			}
			buf, err = wire.AppendResponse(buf[:0], resp)
			if err != nil {
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}()
	addr := ln.Addr().String()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := DoRetry(context.Background(), c, kstm.Task{Key: 7, Op: kstm.OpLookup, Arg: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != true {
		t.Errorf("value = %v, want true", res.Value)
	}
}
