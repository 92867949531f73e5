package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"kstm"
	"kstm/client"
	"kstm/server"
)

// stack is one workload's running system: the executor and, for the wire
// workloads, the loopback server in front of it and one client per
// connection.
type stack struct {
	ex        *kstm.Executor
	srv       *server.Server
	srvDone   chan error
	clients   []*client.Client
	prefilled []uint32
}

// setup builds and starts the stack and sends one request through it, so
// the time it takes covers everything a user waits for before the first
// answer: build, prefill, listen, dial, first round trip.
func setup(w *workload, n int, seed uint64) (*stack, error) {
	ex, prefilled, err := w.newExecutor(n, seed)
	if err != nil {
		return nil, fmt.Errorf("build executor: %w", err)
	}
	if err := ex.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("start executor: %w", err)
	}
	st := &stack{ex: ex, prefilled: prefilled}
	if w.wire() {
		if err := st.serve(n); err != nil {
			st.close()
			return nil, err
		}
	}
	if _, err := st.lookup(context.Background(), 0); err != nil {
		st.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return st, nil
}

// serve puts the server cmd/kstmd builds in front of the executor, on a
// loopback port of the kernel's choosing, and dials n connections.
func (st *stack) serve(n int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	st.srv = server.New(st.ex,
		server.WithMaxOp(uint8(kstm.OpNoop)),
		server.WithKeyMask(kstm.MaxKey),
		server.WithLogger(log.New(io.Discard, "", 0)))
	st.srvDone = make(chan error, 1)
	go func() { st.srvDone <- st.srv.Serve(context.Background(), ln) }()
	for i := 0; i < n; i++ {
		cl, err := client.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		st.clients = append(st.clients, cl)
	}
	return nil
}

// lookup reads one key through the workload's own path and returns the raw
// task value.
func (st *stack) lookup(ctx context.Context, key uint32) (any, error) {
	t := kstm.Task{Key: uint64(key), Op: kstm.OpLookup, Arg: key}
	if len(st.clients) > 0 {
		res, err := st.clients[0].Do(ctx, t)
		return res.Value, err
	}
	res, err := st.ex.Submit(ctx, t)
	return res.Value, err
}

// readBack looks up keys 0..n-1 through the workload's own path. Over the
// wire the lookups are pipelined in chunks; one at a time they would take
// seconds.
func (st *stack) readBack(ctx context.Context, n int) ([]any, error) {
	out := make([]any, n)
	if len(st.clients) == 0 {
		for k := range out {
			v, err := st.lookup(ctx, uint32(k))
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	}
	const chunk = 256
	cl := st.clients[0]
	calls := make([]*client.Call, 0, chunk)
	for lo := 0; lo < n; lo += chunk {
		calls = calls[:0]
		for k := lo; k < min(lo+chunk, n); k++ {
			call, err := cl.DoAsync(ctx, kstm.Task{Key: uint64(k), Op: kstm.OpLookup, Arg: uint32(k)})
			if err != nil {
				return nil, err
			}
			calls = append(calls, call)
		}
		for i, call := range calls {
			res, err := call.Wait(ctx)
			if err != nil {
				return nil, err
			}
			out[lo+i] = res.Value
		}
	}
	return out, nil
}

// close tears the stack down in kstmd's order — drain the executor, then
// sever connections — bounded so a wedged drain cannot hang the run.
func (st *stack) close() error {
	for _, cl := range st.clients {
		cl.Close()
	}
	drained := make(chan error, 1)
	go func() { drained <- st.ex.Drain() }()
	var err error
	select {
	case err = <-drained:
	case <-time.After(10 * time.Second):
		st.ex.Stop()
		err = errors.Join(errors.New("drain timed out"), <-drained)
	}
	if st.srv != nil {
		st.srv.Close()
		err = errors.Join(err, <-st.srvDone)
	}
	return errors.Join(err, st.ex.MigrationErr(), st.ex.SplitErr())
}
