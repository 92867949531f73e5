package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/harness"
	"kstm/internal/stm"
	"kstm/internal/txds"
	"kstm/internal/wire"
	"kstm/server"
)

// quiet discards server connection-error logs in tests that provoke them.
var quiet = log.New(io.Discard, "", 0)

// startServer spins up an executor + server on a loopback listener and
// returns the dial address plus a shutdown func.
func startServer(t *testing.T, exOpts []kstm.Option, srvOpts ...server.Option) (*kstm.Executor, *server.Server, string, func()) {
	t.Helper()
	ex, err := kstm.NewExecutor(exOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(ex, append([]server.Option{server.WithLogger(quiet)}, srvOpts...)...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), ln) }()
	shutdown := func() {
		ex.Stop()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	return ex, srv, ln.Addr().String(), shutdown
}

func dictExecutorOpts(t *testing.T, extra ...kstm.Option) []kstm.Option {
	t.Helper()
	table := kstm.NewHashTable(0)
	opts := []kstm.Option{
		kstm.WithWorkload(harness.NewDictWorkload(table)),
		kstm.WithWorkers(2),
		kstm.WithBackpressure(kstm.BackpressureReject),
	}
	return append(opts, extra...)
}

// TestRoundTripLoopback is the acceptance-criteria test: insert, lookup and
// delete round-trip over a real TCP connection with values intact.
func TestRoundTripLoopback(t *testing.T) {
	_, _, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	task := func(op kstm.Op, k uint32) kstm.Task {
		return kstm.Task{Key: uint64(k), Op: op, Arg: k}
	}
	// Fresh key: insert reports "was absent" = true, second insert false.
	if got, err := c.DoBool(ctx, task(kstm.OpInsert, 77)); err != nil || !got {
		t.Fatalf("first insert = %v, %v; want true, nil", got, err)
	}
	if got, err := c.DoBool(ctx, task(kstm.OpInsert, 77)); err != nil || got {
		t.Fatalf("second insert = %v, %v; want false, nil", got, err)
	}
	if got, err := c.DoBool(ctx, task(kstm.OpLookup, 77)); err != nil || !got {
		t.Fatalf("lookup after insert = %v, %v; want true, nil", got, err)
	}
	if got, err := c.DoBool(ctx, task(kstm.OpDelete, 77)); err != nil || !got {
		t.Fatalf("delete = %v, %v; want true, nil", got, err)
	}
	if got, err := c.DoBool(ctx, task(kstm.OpLookup, 77)); err != nil || got {
		t.Fatalf("lookup after delete = %v, %v; want false, nil", got, err)
	}
	// Latency plumbing: a served request reports a non-negative wait and a
	// positive-but-sane service time.
	res, err := c.Do(ctx, task(kstm.OpLookup, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec < 0 || res.Exec > time.Minute || res.Wait < 0 {
		t.Fatalf("implausible latency: wait=%v exec=%v", res.Wait, res.Exec)
	}
}

// TestPipelinedRoundTrip pipelines requests over one connection with
// DoAsync: the server fans them through the callback submit path, its
// writer coalesces each burst of completions into one flush, and every call
// settles with its own task's value. A bad request between two good ones
// answers alone without touching its neighbours.
func TestPipelinedRoundTrip(t *testing.T) {
	ex, srv, addr, shutdown := startServer(t, dictExecutorOpts(t), server.WithMaxOp(uint8(kstm.OpNoop)))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	pipeline := func(tasks []kstm.Task) []*client.Call {
		t.Helper()
		calls := make([]*client.Call, len(tasks))
		for i, task := range tasks {
			if calls[i], err = c.DoAsync(ctx, task); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		return calls
	}
	const n = 500
	tasks := make([]kstm.Task, n)
	for i := range tasks {
		tasks[i] = kstm.Task{Key: uint64(i), Op: kstm.OpInsert, Arg: uint32(i)}
	}
	for i, call := range pipeline(tasks) {
		res, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if added, _ := res.Value.(bool); !added {
			t.Fatalf("call %d: fresh insert reported %v", i, res.Value)
		}
	}
	// Re-reading the same keys in a second pipeline observes the inserts.
	for i := range tasks {
		tasks[i].Op = kstm.OpLookup
	}
	for i, call := range pipeline(tasks) {
		res, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if hit, _ := res.Value.(bool); !hit {
			t.Fatalf("lookup %d missed its own insert", i)
		}
	}
	// A bad opcode between two good requests fails alone.
	calls := pipeline([]kstm.Task{
		{Key: 1, Op: kstm.OpLookup, Arg: 1},
		{Key: 2, Op: kstm.Op(200), Arg: 2},
		{Key: 3, Op: kstm.OpLookup, Arg: 3},
	})
	if _, err := calls[0].Wait(ctx); err != nil {
		t.Errorf("good request before the bad one: %v", err)
	}
	if _, err := calls[1].Wait(ctx); !errors.Is(err, client.ErrBadRequest) {
		t.Errorf("bad opcode: %v, want ErrBadRequest", err)
	}
	if _, err := calls[2].Wait(ctx); err != nil {
		t.Errorf("good request after the bad one: %v", err)
	}
	if st := ex.Stats(); st.Completed != 2*n+2 {
		t.Errorf("executor completed %d, want %d", st.Completed, 2*n+2)
	}
	if ss := srv.Stats(); ss.Requests != 2*n+3 || ss.Responses != 2*n+3 || ss.BadRequest != 1 {
		t.Errorf("server req/resp/badreq = %d/%d/%d, want %d/%d/1", ss.Requests, ss.Responses, ss.BadRequest, 2*n+3, 2*n+3)
	}
}

// TestBatchFrameDropsConn: the server accepts only TypeRequest frames. A
// well-formed batch request frame is a protocol error: the connection is
// dropped unanswered, counted once, and the server keeps serving others.
func TestBatchFrameDropsConn(t *testing.T) {
	_, srv, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendBatchRequest(nil, []wire.Request{
		{ID: 1, Key: 1, Op: uint8(kstm.OpInsert), Arg: 1},
		{ID: 2, Key: 2, Op: uint8(kstm.OpInsert), Arg: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(raw)
	raw.Close()
	if len(got) != 0 {
		t.Errorf("server answered a batch frame with %d bytes", len(got))
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the connection open after a batch frame")
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.DoBool(context.Background(), kstm.Task{Key: 3, Op: kstm.OpInsert, Arg: 3}); err != nil || !got {
		t.Fatalf("insert on a new connection = %v, %v; want true, nil", got, err)
	}
	if ss := srv.Stats(); ss.ProtocolErrors != 1 || ss.Requests != 1 {
		t.Errorf("protocol errors / requests = %d/%d, want 1/1", ss.ProtocolErrors, ss.Requests)
	}
}

// TestManyClientsPipelined drives N clients × M pipelined requests and
// checks that every response arrives, values are booleans, and the server
// and executor agree on the totals. All 1600 requests may sit on one worker
// (their keys share the initial partition's low range), so the executor runs
// kstmd's queue depth, 4096: the library default (512) would answer some of
// them busy, which is reject-mode backpressure working, not a lost response.
func TestManyClientsPipelined(t *testing.T) {
	ex, srv, addr, shutdown := startServer(t, dictExecutorOpts(t, kstm.WithQueueDepth(4096)))
	defer shutdown()
	const clients, perClient = 8, 200
	var served atomic.Uint64
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ctx := context.Background()
			calls := make([]*client.Call, 0, perClient)
			for i := 0; i < perClient; i++ {
				k := uint32((ci*perClient + i) % 4096)
				op := kstm.OpInsert
				if i%3 == 0 {
					op = kstm.OpLookup
				}
				call, err := c.DoAsync(ctx, kstm.Task{Key: uint64(k), Op: op, Arg: k})
				if err != nil {
					t.Errorf("client %d: %v", ci, err)
					return
				}
				calls = append(calls, call)
			}
			for i, call := range calls {
				res, err := call.Wait(ctx)
				if err != nil {
					t.Errorf("client %d call %d: %v", ci, i, err)
					return
				}
				if _, ok := res.Value.(bool); !ok {
					t.Errorf("client %d call %d: value %T, want bool", ci, i, res.Value)
					return
				}
				served.Add(1)
			}
		}(ci)
	}
	wg.Wait()
	if served.Load() != clients*perClient {
		t.Fatalf("served %d, want %d", served.Load(), clients*perClient)
	}
	if st := ex.Stats(); st.Completed != clients*perClient || st.Cancelled != 0 {
		t.Errorf("executor Completed/Cancelled = %d/%d, want %d/0", st.Completed, st.Cancelled, clients*perClient)
	}
	if ss := srv.Stats(); ss.Responses != clients*perClient || ss.Requests != clients*perClient {
		t.Errorf("server req/resp = %d/%d, want %d each", ss.Requests, ss.Responses, clients*perClient)
	}
}

// gateWorkload blocks execution until released so tests can pin tasks in
// queues deterministically.
type gateWorkload struct {
	gate     chan struct{}
	entered  atomic.Int64
	executed atomic.Int64
}

func newGate() *gateWorkload { return &gateWorkload{gate: make(chan struct{})} }

func (g *gateWorkload) Execute(th *stm.Thread, task kstm.Task) (any, error) {
	g.entered.Add(1)
	<-g.gate
	g.executed.Add(1)
	return true, nil
}

// pinWorker occupies an executor's single worker with one gated task,
// submitted in-process: a gated WIRE request would find its owner parked,
// run on its connection's reader, and nothing behind it on that connection
// would be read. The wire requests a test sends afterwards thus
// take the queue path it is about. The returned future settles on release.
func pinWorker(t *testing.T, ex *kstm.Executor, entered func() bool) *kstm.Future {
	t.Helper()
	pin, err := ex.SubmitAsync(context.Background(), kstm.Task{Key: 0, Op: kstm.OpLookup})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !entered() {
		if time.Now().After(deadline) {
			t.Fatal("pinned task never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return pin
}

// TestBusyResponse: with a single worker held at a gate and a queue bound of
// 1, further requests must come back as ErrBusy — the wire mapping of
// reject-mode backpressure — without disturbing the queued work.
func TestBusyResponse(t *testing.T) {
	gate := newGate()
	ex, srv, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithWorkload(gate),
		kstm.WithWorkers(1),
		kstm.WithBackpressure(kstm.BackpressureReject),
		kstm.WithQueueDepth(1),
	})
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Fill: the in-process pin occupies the worker, one wire request sits
	// queued, the rest are busy.
	pin := pinWorker(t, ex, func() bool { return gate.entered.Load() == 1 })
	var pending []*client.Call
	busy := 0
	for i := 0; i < 16; i++ {
		call, err := c.DoAsync(ctx, kstm.Task{Key: 1, Arg: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, call)
	}
	// Release only once the server has read all 16 and the executor has
	// queued or refused each: with depth 1 and the worker gated exactly one
	// is queued and the other 15 are busy. Releasing earlier lets requests
	// not yet read find room, or a parked owner, and complete.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := ex.Stats()
		if srv.Stats().Requests == 16 && st.Submitted+st.Rejected == 17 { // + the pin
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server read %d of 16 requests; executor accepted %d and refused %d (with the pin)",
				srv.Stats().Requests, st.Submitted, st.Rejected)
		}
		time.Sleep(100 * time.Microsecond)
	}
	gate.release()
	if _, err := pin.Wait(ctx); err != nil {
		t.Fatalf("pinned task: %v", err)
	}
	completed := 0
	for _, call := range pending {
		if _, err := call.Wait(ctx); errors.Is(err, client.ErrBusy) {
			busy++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		} else {
			completed++
		}
	}
	if busy != 15 || completed != 1 {
		t.Fatalf("busy %d, completed %d of 16 requests against a depth-1 queue; want 15 and 1", busy, completed)
	}
	if ss := srv.Stats(); ss.Busy != uint64(busy) {
		t.Errorf("server Busy = %d, client saw %d", ss.Busy, busy)
	}
	if st := ex.Stats(); st.Rejected != uint64(busy) {
		t.Errorf("executor Rejected = %d, want %d", st.Rejected, busy)
	}
}

func (g *gateWorkload) release() { close(g.gate) }

// TestConnDropDoesNotWedgeDrain is the slow/dying-client scenario: a client
// pipelines work behind a gated worker and drops the connection. The
// server-side cancellation must abandon its queued tasks so a subsequent
// Drain returns instead of waiting for results nobody can receive.
func TestConnDropDoesNotWedgeDrain(t *testing.T) {
	gate := newGate()
	ex, srv, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithWorkload(gate),
		kstm.WithWorkers(1),
		kstm.WithBackpressure(kstm.BackpressureReject),
		kstm.WithQueueDepth(4096),
	})
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pin := pinWorker(t, ex, func() bool { return gate.entered.Load() == 1 })
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := c.DoAsync(ctx, kstm.Task{Key: 1, Arg: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the server has accepted the submissions (plus the pin),
	// then vanish.
	deadline := time.Now().Add(5 * time.Second)
	for ex.Stats().Submitted < n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d/%d submissions", ex.Stats().Submitted-1, n)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	// Wait until the server has retired the connection (its context — and
	// with it every queued task's submission context — is then cancelled)
	// before letting the worker advance, so the cancellations are
	// deterministic rather than a race against the gate.
	for srv.Stats().OpenConns > 0 {
		if time.Now().After(deadline) {
			t.Fatal("server did not retire the dropped connection")
		}
		time.Sleep(time.Millisecond)
	}
	gate.release()

	drained := make(chan error, 1)
	go func() { drained <- ex.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain wedged after mid-flight connection drop")
	}
	if _, err := pin.Wait(ctx); err != nil {
		t.Fatalf("pinned task: %v", err)
	}
	st := ex.Stats()
	if st.Completed+st.Cancelled != n+1 {
		t.Errorf("Completed %d + Cancelled %d != %d submitted (+1 pin)", st.Completed, st.Cancelled, n)
	}
	if st.Cancelled == 0 {
		t.Error("no tasks were cancelled by the connection drop")
	}
	if got := gate.executed.Load(); uint64(got) != st.Completed {
		t.Errorf("workload executed %d, Completed says %d", got, st.Completed)
	}
}

// TestBadRequestMapping: opcodes above the server's maximum are refused
// before submission with StatusBadRequest.
func TestBadRequestMapping(t *testing.T) {
	_, srv, addr, shutdown := startServer(t, dictExecutorOpts(t), server.WithMaxOp(uint8(kstm.OpNoop)))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(context.Background(), kstm.Task{Key: 1, Op: kstm.Op(42), Arg: 1}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("op 42: %v, want ErrBadRequest", err)
	}
	// The connection survives a bad request.
	if _, err := c.DoBool(context.Background(), kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1}); err != nil {
		t.Fatalf("connection dead after bad request: %v", err)
	}
	if ss := srv.Stats(); ss.BadRequest != 1 {
		t.Errorf("BadRequest = %d, want 1", ss.BadRequest)
	}
}

// TestMaxArgBound: with WithMaxArg set (the migrating-server contract —
// hand-off ranges live in the dispatch-key space, so out-of-space Args
// would strand), oversized arguments are refused with StatusBadRequest;
// in-bound requests are unaffected.
func TestMaxArgBound(t *testing.T) {
	_, srv, addr, shutdown := startServer(t, dictExecutorOpts(t), server.WithMaxArg(kstm.MaxKey))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(context.Background(), kstm.Task{Key: 1, Op: kstm.OpInsert, Arg: 70000}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("arg 70000: %v, want ErrBadRequest", err)
	}
	if _, err := c.DoBool(context.Background(), kstm.Task{Key: 1, Op: kstm.OpInsert, Arg: 42}); err != nil {
		t.Fatalf("in-bound arg after refusal: %v", err)
	}
	if ss := srv.Stats(); ss.BadRequest != 1 {
		t.Errorf("BadRequest = %d, want 1", ss.BadRequest)
	}
}

// TestWorkloadErrorMapping: hard workload errors travel back as ServerError
// with the message intact.
func TestWorkloadErrorMapping(t *testing.T) {
	wl := kstm.WorkloadFunc(func(th *kstm.Thread, task kstm.Task) (any, error) {
		if task.Op == kstm.OpDelete {
			return nil, fmt.Errorf("no deletes today")
		}
		return true, nil
	})
	_, _, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithWorkload(wl), kstm.WithWorkers(1),
	})
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(context.Background(), kstm.Task{Key: 1, Op: kstm.OpDelete})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Msg != "no deletes today" {
		t.Fatalf("got %v, want ServerError(no deletes today)", err)
	}
}

// TestDrainingServerAnswersStopped: after the executor drains, connected
// clients get StatusStopped for new work instead of hangs or resets.
func TestDrainingServerAnswersStopped(t *testing.T) {
	ex, _, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.DoBool(ctx, kstm.Task{Key: 9, Op: kstm.OpInsert, Arg: 9}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(ctx, kstm.Task{Key: 9, Op: kstm.OpLookup, Arg: 9}); !errors.Is(err, client.ErrStopped) {
		t.Fatalf("post-drain request: %v, want ErrStopped", err)
	}
}

// TestGarbageInputDropsConnOnly: a connection sending junk is dropped
// without hurting the listener or other connections.
func TestGarbageInputDropsConnOnly(t *testing.T) {
	_, srv, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server should close on us.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := raw.Read(buf); err != nil {
			break
		}
	}
	raw.Close()
	// A well-behaved client still works.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.DoBool(context.Background(), kstm.Task{Key: 2, Op: kstm.OpInsert, Arg: 2}); err != nil {
		t.Fatal(err)
	}
	if ss := srv.Stats(); ss.ProtocolErrors == 0 {
		t.Error("garbage input not counted as a protocol error")
	}
}

// TestCloseWithIdleConnection: Server.Close must return even while a client
// holds a connection open and silent — the per-connection context has to
// unblock the read loop, not just cancel futures.
func TestCloseWithIdleConnection(t *testing.T) {
	ex, srv, addr, _ := startServer(t, dictExecutorOpts(t))
	defer ex.Stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One request proves the connection is established and served.
	if _, err := c.DoBool(context.Background(), kstm.Task{Key: 3, Op: kstm.OpInsert, Arg: 3}); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close wedged on an idle open connection")
	}
}

// TestUnencodableValueAnswersError: a workload value outside the wire
// vocabulary fails only that request (StatusError), not the connection.
func TestUnencodableValueAnswersError(t *testing.T) {
	wl := kstm.WorkloadFunc(func(th *kstm.Thread, task kstm.Task) (any, error) {
		if task.Op == kstm.OpNoop {
			return struct{ X int }{1}, nil // not encodable on the wire
		}
		return true, nil
	})
	_, srv, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithWorkload(wl), kstm.WithWorkers(1),
	})
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var se *client.ServerError
	if _, err := c.Do(ctx, kstm.Task{Key: 1, Op: kstm.OpNoop}); !errors.As(err, &se) {
		t.Fatalf("unencodable value: %v, want ServerError", err)
	}
	// The connection survives; the next request round-trips.
	if got, err := c.DoBool(ctx, kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1}); err != nil || !got {
		t.Fatalf("connection dead after unencodable value: %v %v", got, err)
	}
	if ss := srv.Stats(); ss.Failed == 0 {
		t.Error("unencodable value not counted under Failed")
	}
}

// TestKeyMaskSpreadsBigKeys: clients routing by natural 64-bit keys must
// not collapse onto one worker — the configured mask folds keys into the
// scheduler's range (kstmd's configuration).
func TestKeyMaskSpreadsBigKeys(t *testing.T) {
	table := kstm.NewHashTable(0)
	ex, _, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithWorkload(harness.NewDictWorkload(table)),
		kstm.WithWorkers(2),
		kstm.WithSchedulerKind(kstm.SchedFixed, 0, kstm.MaxKey),
	}, server.WithKeyMask(kstm.MaxKey))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	// Two 64-bit keys far above MaxKey whose masked values land in the two
	// fixed halves of the 16-bit space.
	low := uint64(1<<40) | 5      // masks to 5 -> worker 0
	high := uint64(1<<40) | 60000 // masks to 60000 -> worker 1
	for i := 0; i < 8; i++ {
		for _, k := range []uint64{low, high} {
			if _, err := c.Do(ctx, kstm.Task{Key: k, Op: kstm.OpInsert, Arg: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := ex.Stats()
	if st.PerWorker[0] == 0 || st.PerWorker[1] == 0 {
		t.Fatalf("big keys collapsed onto one worker: per-worker %v", st.PerWorker)
	}
}

// TestPoolRoundTrip stripes concurrent traffic over a connection pool.
func TestPoolRoundTrip(t *testing.T) {
	_, _, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	p, err := client.DialPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 4 {
		t.Fatalf("pool size %d, want 4", p.Size())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 50; i++ {
				k := uint32(g*100 + i)
				if _, err := p.Do(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}); err != nil {
					errs <- err
					return
				}
				if got, err := p.Do(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpLookup, Arg: k}); err != nil || got.Value != true {
					errs <- fmt.Errorf("lookup %d = %v, %v", k, got.Value, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestShardedServer serves a per-worker sharded executor over the wire: the
// network layer must be oblivious to the sharding mode.
func TestShardedServer(t *testing.T) {
	_, _, addr, shutdown := startServer(t, []kstm.Option{
		kstm.WithSharding(kstm.ShardPerWorker),
		kstm.WithWorkloadFactory(harness.NewKeyRangeDictFactory(txds.KindHashTable)),
		kstm.WithWorkers(2),
	})
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for k := uint32(0); k < 64; k++ {
		if _, err := c.Do(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint32(0); k < 64; k++ {
		if got, err := c.DoBool(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpLookup, Arg: k}); err != nil || !got {
			t.Fatalf("sharded lookup %d = %v, %v", k, got, err)
		}
	}
}

// TestDeadlineShedOverWire drives deadline propagation end to end: a ctx
// deadline on DoAsync rides the wire as a relative budget, the server sheds
// the task when the budget expires in queue behind a blocker — answering
// StatusDeadline without ever executing it — and both the executor's and the
// server's deadline counters advance.
func TestDeadlineShedOverWire(t *testing.T) {
	release := make(chan struct{})
	var entered, executed atomic.Int64
	exOpts := []kstm.Option{
		kstm.WithWorkload(kstm.WorkloadFunc(func(_ *stm.Thread, tk kstm.Task) (any, error) {
			if tk.Key == 0 {
				entered.Add(1)
				<-release
				return true, nil
			}
			executed.Add(1)
			return true, nil
		})),
		kstm.WithWorkers(1),
		kstm.WithBackpressure(kstm.BackpressureReject),
	}
	ex, srv, addr, shutdown := startServer(t, exOpts)
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The blocker is pinWorker's in-process task (Key 0).
	blocker := pinWorker(t, ex, func() bool { return entered.Load() == 1 })
	// The victim queues behind the blocker on the same (single) worker; its
	// 5ms budget expires while queued.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	victim, err := c.DoAsync(dctx, kstm.Task{Key: 1, Op: kstm.OpLookup})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	cancel()

	if _, err := victim.Wait(context.Background()); !errors.Is(err, client.ErrDeadlineExpired) {
		t.Fatalf("victim err = %v, want ErrDeadlineExpired", err)
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatalf("blocker err = %v", err)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("shed task executed %d times, want 0", n)
	}
	if st := ex.Stats(); st.DeadlineExpired != 1 {
		t.Errorf("ExecStats.DeadlineExpired = %d, want 1", st.DeadlineExpired)
	}
	if ss := srv.Stats(); ss.Deadline != 1 {
		t.Errorf("server Stats.Deadline = %d, want 1", ss.Deadline)
	}
}

// TestAdmissionRejectsOverBudget: with WithAdmission(rate, burst) a
// connection gets burst requests through immediately; the next answers
// StatusBusy with a retry-after hint — surfaced as BusyError — before the
// request touches the executor. Buckets are per connection: a fresh conn
// starts with its own burst.
func TestAdmissionRejectsOverBudget(t *testing.T) {
	// 2/s with burst 2: after two instant requests the third would need a
	// 500ms token — rejected with a sizable retry-after.
	_, srv, addr, shutdown := startServer(t, dictExecutorOpts(t), server.WithAdmission(2, 2))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := c.Do(ctx, kstm.Task{Key: uint64(i), Op: kstm.OpLookup, Arg: uint32(i)}); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	_, err = c.Do(ctx, kstm.Task{Key: 3, Op: kstm.OpLookup, Arg: 3})
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("over-budget request: %v, want ErrBusy", err)
	}
	var be *client.BusyError
	if !errors.As(err, &be) || be.RetryAfter <= 0 {
		t.Fatalf("over-budget request: %v, want BusyError with positive RetryAfter", err)
	}
	// A second connection has its own untouched bucket.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Do(ctx, kstm.Task{Key: 9, Op: kstm.OpLookup, Arg: 9}); err != nil {
		t.Fatalf("fresh connection's first request: %v", err)
	}
	ss := srv.Stats()
	if ss.Admitted < 3 || ss.AdmitRejected < 1 {
		t.Errorf("Admitted = %d (want >= 3), AdmitRejected = %d (want >= 1)", ss.Admitted, ss.AdmitRejected)
	}
}

// TestLoneRequestRunsOnReader: a window-1 client's requests find their owner
// parked, so each runs on the connection's reader and is answered from it —
// correct values, and nearly every task borrowed and written inline.
func TestLoneRequestRunsOnReader(t *testing.T) {
	ex, srv, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	const n = 200
	for i := 0; i < n; i++ {
		k := uint32(i % 50)
		want := i < 50 // first insert of each key reports "was absent"
		if got, err := c.DoBool(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}); err != nil || got != want {
			t.Fatalf("insert %d = %v, %v; want %v, nil", i, got, err, want)
		}
	}
	st, ss := ex.Stats(), srv.Stats()
	t.Logf("borrowed %d, inline %d of %d", st.Borrowed, ss.Inline, n)
	if st.Borrowed < n*9/10 {
		t.Errorf("ExecStats.Borrowed = %d, want >= %d of %d window-1 requests", st.Borrowed, n*9/10, n)
	}
	if ss.Inline != st.Borrowed {
		t.Errorf("server Stats.Inline = %d, want ExecStats.Borrowed = %d", ss.Inline, st.Borrowed)
	}
	if st.Completed != n || ss.Responses != n {
		t.Errorf("Completed/Responses = %d/%d, want %d each", st.Completed, ss.Responses, n)
	}
}

// writeCounter counts the Write calls made on the server's side of a
// connection: one per flushed burst.
type writeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// readResponse reads one frame from conn and requires it to be a response.
func readResponse(t *testing.T, conn net.Conn, scratch *[]byte) wire.Response {
	t.Helper()
	f, err := wire.ReadFrame(conn, scratch)
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	if f.Type != wire.TypeResponse {
		t.Fatalf("frame type %d, want TypeResponse", f.Type)
	}
	return f.Resp
}

// TestBurstRunsOnReaderWithOneWrite: 16 request frames arrive in one segment
// at a server whose workers are parked. Each finds its owner parked, so the
// reader runs all 16 itself, and it flushes their answers once, when no
// whole frame is left in its buffer: one write to the socket.
func TestBurstRunsOnReaderWithOneWrite(t *testing.T) {
	var writes atomic.Int64
	ex, srv, addr, shutdown := startServer(t, dictExecutorOpts(t),
		server.WithConnWrapper(func(c net.Conn) net.Conn { return writeCounter{c, &writes} }))
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let both workers park.
	time.Sleep(20 * time.Millisecond)
	const n = 16
	var burst []byte
	for i := 0; i < n; i++ {
		burst = wire.AppendRequest(burst, wire.Request{ID: uint64(i), Key: uint64(i * 4000), Op: uint8(kstm.OpInsert), Arg: uint32(i)})
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var scratch []byte
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		r := readResponse(t, conn, &scratch)
		if r.Status != wire.StatusOK || r.Value != true || seen[r.ID] {
			t.Fatalf("response %d: id %d status %d value %v; want a fresh id, OK, true", i, r.ID, r.Status, r.Value)
		}
		seen[r.ID] = true
	}
	st, ss := ex.Stats(), srv.Stats()
	if st.Borrowed != n || ss.Inline != n {
		t.Errorf("Borrowed/Inline = %d/%d, want %d each (every request ran on the reader)", st.Borrowed, ss.Inline, n)
	}
	if got := writes.Load(); got != 1 {
		t.Errorf("server wrote the burst's answers in %d writes, want 1", got)
	}
}

// TestFlushBeforePartialFrame: a whole frame followed by the first bytes of
// the next arrive together. The reader must flush the first answer before it
// blocks reading the rest of the second frame: the client waits for that
// answer before it sends the rest.
func TestFlushBeforePartialFrame(t *testing.T) {
	_, _, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	first := wire.AppendRequest(nil, wire.Request{ID: 1, Key: 5, Op: uint8(kstm.OpInsert), Arg: 5})
	second := wire.AppendRequest(nil, wire.Request{ID: 2, Key: 6, Op: uint8(kstm.OpInsert), Arg: 6})
	if _, err := conn.Write(append(first, second[:10]...)); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if r := readResponse(t, conn, &scratch); r.ID != 1 || r.Status != wire.StatusOK {
		t.Fatalf("first response: id %d status %d; want 1, OK", r.ID, r.Status)
	}
	if _, err := conn.Write(second[10:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if r := readResponse(t, conn, &scratch); r.ID != 2 || r.Status != wire.StatusOK {
		t.Fatalf("second response: id %d status %d; want 2, OK", r.ID, r.Status)
	}
}
