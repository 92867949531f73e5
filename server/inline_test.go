package server

import (
	"context"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/stm"
)

// TestInlineTaskBlocksOnlyItsConnection: a request whose owner is parked runs
// on its connection's reader, so while that task is held at a gate the
// reader reads nothing more from connection A — but connection B, on the
// other worker, is answered meanwhile. After release every request A
// pipelined behind the inline one is answered exactly once, and A's
// connection state ends with an empty slot semaphore and is recycled.
func TestInlineTaskBlocksOnlyItsConnection(t *testing.T) {
	// One P makes every pooled connState reachable from this goroutine, so
	// the drain below leaves the pool empty and A's handler builds a fresh
	// state through the recording New.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	var built []*connState
	newState := connPool.New
	connPool.New = func() any {
		cs := newState().(*connState)
		mu.Lock()
		built = append(built, cs)
		mu.Unlock()
		return cs
	}
	defer func() { connPool.New = newState }()
	for len(built) == 0 { // drain until Get falls through to New
		connPool.Get()
	}
	built = built[:0]

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	ex, err := kstm.NewExecutor(
		kstm.WithWorkload(kstm.WorkloadFunc(func(_ *stm.Thread, tk kstm.Task) (any, error) {
			if tk.Key == 1 {
				entered <- struct{}{}
				<-gate
			}
			return uint64(tk.Arg), nil
		})),
		kstm.WithWorkers(2),
		kstm.WithSchedulerKind(kstm.SchedFixed, 0, 65535),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	srv := New(ex, WithLogger(log.New(io.Discard, "", 0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), ln)
	defer srv.Close()
	addr := ln.Addr().String()
	ctx := context.Background()

	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Let both workers park, so A's first request finds its owner idle.
	time.Sleep(20 * time.Millisecond)
	first, err := a.DoAsync(ctx, kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if got := ex.Stats().Borrowed; got != 1 {
		t.Fatalf("gated request: Borrowed = %d, want 1 (ran on the reader)", got)
	}
	const behind = 10
	calls := []*client.Call{first}
	for i := 0; i < behind; i++ {
		c, err := a.DoAsync(ctx, kstm.Task{Key: uint64(2 + i), Op: kstm.OpLookup, Arg: uint32(2 + i)})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}

	// B's key is owned by the other worker: answered while A's reader is
	// still inside the gated task.
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if res, err := b.Do(bctx, kstm.Task{Key: 40000, Op: kstm.OpLookup, Arg: 7}); err != nil || res.Value != uint64(7) {
		t.Fatalf("connection B while A's reader is gated: %v, %v; want 7, nil", res.Value, err)
	}
	select {
	case <-calls[1].Done():
		t.Fatal("a request behind A's inline task was answered before the task ended")
	default:
	}

	close(gate)
	for i, c := range calls {
		res, err := c.Wait(ctx)
		if err != nil || res.Value != uint64(i+1) {
			t.Fatalf("A's request %d: %v, %v; want %d, nil", i, res.Value, err, i+1)
		}
	}
	if got, want := srv.Stats().Responses, uint64(behind+2); got != want {
		t.Errorf("server wrote %d responses, want %d (each request answered once)", got, want)
	}

	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().OpenConns > 1 {
		if time.Now().After(deadline) {
			t.Fatal("server did not retire connection A")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(built) == 0 {
		t.Fatal("no connection state built through the pool")
	}
	cs := built[0]
	if n := len(cs.inflight); n != 0 {
		t.Errorf("connection A's slot semaphore holds %d, want 0", n)
	}
	cs.out.mu.Lock()
	closed := cs.out.closed
	cs.out.mu.Unlock()
	if closed {
		t.Error("connection A's state was not recycled (its response queue is still closed)")
	}
}
