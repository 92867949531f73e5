package server_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/fault"
	"kstm/server"
)

// chaosSeeds picks the seeded matrix width: PR CI runs the short set, the
// nightly sweep drops -short for more seeds per scenario.
func chaosSeeds() []uint64 {
	if testing.Short() {
		return []uint64{1}
	}
	return []uint64{1, 2, 3}
}

// TestTruncationAtEveryByteBoundary cuts the client's connection after every
// possible byte prefix of the 35-byte request frame, once with a ctx deadline
// on the wire and once without, through the fault conn wrapper. The server
// must treat each truncation as a dead connection, never a wedge: after all
// the abuse a healthy client round-trips and Drain completes promptly.
func TestTruncationAtEveryByteBoundary(t *testing.T) {
	ex, _, addr, shutdown := startServer(t, dictExecutorOpts(t))
	defer shutdown()

	// 4 (len) + 1 (ver) + 1 (typ) + a 29-byte body.
	const frameSize = 35
	for _, withDeadline := range []bool{false, true} {
		for cut := 1; cut < frameSize; cut++ {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			inj := fault.New(uint64(cut), fault.Rule{Every: 1, DropAfter: int64(cut)})
			c := client.NewClient(inj.Conn(raw))
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if withDeadline {
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
			}
			_, err = c.Do(ctx, kstm.Task{Key: uint64(cut), Op: kstm.OpInsert, Arg: uint32(cut)})
			cancel()
			if err == nil {
				t.Fatalf("cut %d/%d (deadline %v): truncated request succeeded", cut, frameSize, withDeadline)
			}
			c.Close()
		}
	}

	// The server survived 68 truncated connections: a fresh one works.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.DoBool(context.Background(), kstm.Task{Key: 999, Op: kstm.OpInsert, Arg: 999}); err != nil || !got {
		t.Fatalf("post-abuse insert = %v, %v; want true, nil", got, err)
	}
	// And the executor drains without getting wedged by any of it.
	drained := make(chan error, 1)
	go func() { drained <- ex.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain wedged after truncated connections")
	}
}

// TestPartialIOFullRoundTrip forces every server read and write through
// 1-byte segments (and the client's reads through the resulting boundaries):
// framing must reassemble perfectly — zero errors, all values intact.
func TestPartialIOFullRoundTrip(t *testing.T) {
	inj := fault.New(1, fault.Rule{Every: 1, WriteChunk: 1, ReadChunk: 1})
	_, _, addr, shutdown := startServer(t, dictExecutorOpts(t),
		server.WithConnWrapper(inj.Conn))
	defer shutdown()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if got, err := c.DoBool(ctx, kstm.Task{Key: uint64(i), Op: kstm.OpInsert, Arg: uint32(i)}); err != nil || !got {
			t.Fatalf("insert %d = %v, %v; want true, nil", i, got, err)
		}
	}
	// Pipelined frames cross many 1-byte boundaries in both directions.
	calls := make([]*client.Call, 16)
	for i := range calls {
		if calls[i], err = c.DoAsync(ctx, kstm.Task{Key: uint64(i), Op: kstm.OpLookup, Arg: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, call := range calls {
		res, err := call.Wait(ctx)
		if err != nil {
			t.Fatalf("pipelined lookup %d: %v", i, err)
		}
		if hit, _ := res.Value.(bool); !hit {
			t.Fatalf("pipelined lookup %d missed an inserted key", i)
		}
	}
}

// TestChaosMatrix is the seeded fault matrix: drop / stall / partial
// scenarios against pipelined pool clients retrying through DoRetry. The
// invariants, per DESIGN.md §10:
//
//   - zero visibility errors: every insert acknowledged OK is visible to a
//     later lookup, no matter what the transport did;
//   - the pool recovers once the fault clears (breaker probes revive slots);
//   - Drain completes — no fault pattern wedges shutdown.
func TestChaosMatrix(t *testing.T) {
	scenarios := []struct {
		name string
		rule fault.Rule
	}{
		// Half the connections die after ~300±200 response bytes: acks are
		// lost mid-pipeline, clients see resets, the pool must eject/redial.
		{"drop", fault.Rule{Every: 2, DropAfter: 300, Jitter: 200}},
		// Half the connections freeze once for 3ms mid-stream.
		{"stall", fault.Rule{Every: 2, Stall: 3 * time.Millisecond, StallAfter: 200}},
		// Every connection moves 3-byte write / 5-byte read segments:
		// pure reassembly stress, nothing may fail at all.
		{"partial", fault.Rule{Every: 1, WriteChunk: 3, ReadChunk: 5}},
	}
	const (
		goroutines = 4
		opsPerG    = 40
	)
	for _, sc := range scenarios {
		for _, seed := range chaosSeeds() {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				inj := fault.New(seed, sc.rule)
				var faulting atomic.Bool
				faulting.Store(true)
				wrapper := func(c net.Conn) net.Conn {
					if !faulting.Load() {
						return c
					}
					return inj.Conn(c)
				}
				ex, _, addr, shutdown := startServer(t, dictExecutorOpts(t),
					server.WithConnWrapper(wrapper))
				defer shutdown()
				p, err := client.DialPool(addr, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()

				// Chaos phase: unique-key inserts through DoRetry; every
				// acknowledged key goes into the visibility ledger.
				var mu sync.Mutex
				var acked []uint64
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < opsPerG; i++ {
							key := uint64(g*opsPerG + i + 1)
							opCtx, opCancel := context.WithTimeout(ctx, 2*time.Second)
							_, err := client.DoRetry(opCtx, p, kstm.Task{
								Key: key, Op: kstm.OpInsert, Arg: uint32(key),
							})
							opCancel()
							if err == nil {
								mu.Lock()
								acked = append(acked, key)
								mu.Unlock()
							}
						}
					}(g)
				}
				wg.Wait()
				if len(acked) == 0 {
					t.Fatal("no insert was ever acknowledged; the fault pattern starved the test")
				}

				// Fault clears: the pool must recover via breaker probes.
				faulting.Store(false)
				recoverBy := time.Now().Add(10 * time.Second)
				for {
					_, err := client.DoRetry(ctx, p, kstm.Task{Key: 1, Op: kstm.OpLookup, Arg: 1})
					if err == nil {
						break
					}
					if time.Now().After(recoverBy) {
						t.Fatalf("pool did not recover after fault cleared: %v", err)
					}
					time.Sleep(5 * time.Millisecond)
				}

				// Visibility: every acked insert must be present. Zero
				// tolerance — a lost acked write is a correctness bug, not
				// bad luck.
				for _, key := range acked {
					res, err := client.DoRetry(ctx, p, kstm.Task{Key: key, Op: kstm.OpLookup, Arg: uint32(key)})
					if err != nil {
						t.Fatalf("lookup of acked key %d: %v", key, err)
					}
					if hit, _ := res.Value.(bool); !hit {
						t.Fatalf("visibility error: acked insert of key %d is not visible", key)
					}
				}

				// Shutdown must not wedge under leftover faulted conns.
				drained := make(chan error, 1)
				go func() { drained <- ex.Drain() }()
				select {
				case err := <-drained:
					if err != nil {
						t.Fatalf("drain: %v", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("Drain wedged under chaos")
				}
			})
		}
	}
}
