// Command kstmd serves a transactional dictionary over TCP: a kstm.Executor
// with the paper's adaptive key-based scheduler behind the internal/wire
// protocol (see DESIGN.md "Network front-end"). Clients connect with the
// kstm/client package.
//
// Usage:
//
//	kstmd                                # hash table on :7707, GOMAXPROCS workers
//	kstmd -addr :9000 -workers 8 -structure rbtree
//	kstmd -sharding perworker            # private STM + dictionary per worker
//	kstmd -sharding perworker -migrate   # + epoch-fenced state hand-off on re-adaptation
//	kstmd -queue-depth 1024              # smaller per-worker queues (earlier busy)
//	kstmd -structure counters            # keyed aggregates (add/max/min/topk ops)
//	kstmd -structure counters -split     # + split-phase execution for contended keys
//
// The server sheds load instead of stalling connections: full worker queues
// answer StatusBusy (reject-mode backpressure). A dropped connection cancels
// its queued tasks — they are abandoned before execution and counted under
// ExecStats.Cancelled, never Completed. On SIGINT/SIGTERM the server drains
// gracefully: in-flight transactions finish, new requests answer
// StatusStopped, then the listener and connections close and a final stats
// line is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"kstm"
	"kstm/internal/core"
	"kstm/internal/harness"
	"kstm/internal/txds"
	"kstm/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kstmd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kstmd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":7707", "listen address")
		workers   = fs.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
		structure = fs.String("structure", "hashtable", "structure: hashtable, rbtree, sortedlist, skiplist, or counters (keyed aggregates)")
		sharding  = fs.String("sharding", "shared", "state partitioning: shared or perworker")
		depth     = fs.Int("queue-depth", 4096, "per-worker queue bound (busy above it)")
		threshold = fs.Int("threshold", 10000, "adaptive sample threshold (the paper's 10000)")
		migrate   = fs.Bool("migrate", false, "move shard state on re-partition (requires -sharding perworker); keeps read-your-writes across adaptations")
		readapt   = fs.Bool("readapt", false, "re-estimate the key distribution every threshold samples instead of adapting once")
		split      = fs.Bool("split", false, "split-phase execution for contended keys (requires -structure counters)")
		statsEach  = fs.Duration("stats", 0, "periodic stats line interval (0 = off)")
		admitRate  = fs.Float64("admit-rate", 0, "per-connection admission rate, requests/sec (0 = no admission control)")
		admitBurst = fs.Int("admit-burst", 1, "per-connection admission burst above the steady rate")
		drainTO    = fs.Duration("drain-timeout", 0, "bound on graceful drain at shutdown; on expiry queued tasks are force-stopped (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ex, err := buildExecutor(*structure, kstm.ShardMode(*sharding), *workers, *depth, *threshold, *migrate, *readapt, *split)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := ex.Start(context.Background()); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		ex.Stop()
		return err
	}
	// The dictionary protocol ends at OpNoop; anything above it is a
	// client bug answered with StatusBadRequest before submission. The
	// counter structure additionally speaks the commutative aggregate
	// opcodes (through OpTopK) and dispatches over its own smaller key
	// space. Keys fold into the scheduler's space either way, so clients
	// may route by any 64-bit value (e.g. their own hashes) without
	// collapsing dispatch onto one worker.
	maxOp, keyMask := uint8(kstm.OpNoop), uint64(kstm.MaxKey)
	if *structure == structureCounters {
		maxOp, keyMask = uint8(kstm.OpTopK), harness.ContentionCounters-1
	}
	sopts := []server.Option{
		server.WithMaxOp(maxOp),
		server.WithKeyMask(keyMask),
	}
	if *admitRate > 0 {
		sopts = append(sopts, server.WithAdmission(*admitRate, *admitBurst))
	}
	if *migrate {
		// Hand-off ranges live in the masked dispatch space: an Arg above
		// it would dispatch by its masked key but never be extracted by a
		// dictionary-key range — stranded across re-partitions. Bound Arg
		// to the dictionary space so the migration guarantee is airtight.
		sopts = append(sopts, server.WithMaxArg(kstm.MaxKey))
	}
	srv := server.New(ex, sopts...)
	log.Printf("kstmd: serving %s (%s, %d workers, %s sharding, split=%v) on %s",
		*structure, ex.Scheduler().Name(), ex.Workers(), ex.Sharding(), ex.SplitPhase(), ln.Addr())

	if *statsEach > 0 {
		go func() {
			t := time.NewTicker(*statsEach)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					logStats(ex, srv)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()

	var served bool
	var serveResult error
	select {
	case <-ctx.Done():
	case serveResult = <-serveErr:
		served = true
		// Serve can return (nil) because the signal just closed its
		// listener and win the race against ctx.Done; only a return with
		// no signal pending is a real serve failure.
		if ctx.Err() == nil {
			ex.Stop()
			return serveResult
		}
	}
	// Graceful drain: close submission first so every queued transaction
	// finishes and connected clients see StatusStopped for new requests,
	// then sever connections and stop accepting.
	log.Printf("kstmd: signal received, draining")
	if err := drain(ex, *drainTO); err != nil {
		log.Printf("kstmd: drain: %v", err)
	}
	srv.Close()
	if !served {
		serveResult = <-serveErr
	}
	logStats(ex, srv)
	return serveResult
}

// structureCounters selects the keyed-aggregate counter bank instead of a
// dictionary. It is not a txds.Kind: the counter protocol (commutative
// opcodes, int64 lookups, split-phase support) is the executor layer's,
// not the dictionary benchmarks'.
const structureCounters = "counters"

// buildExecutor assembles the executor for a dictionary structure, shared or
// per-worker sharded, with reject-mode backpressure — a server sheds load
// rather than stalling connection handlers. With migrate set, shards are
// built migratable (hash tables at full prototype size) and the executor
// runs the epoch-fenced hand-off on every re-partition. The counters
// structure serves keyed aggregates instead, optionally under split-phase
// execution for its contended keys.
func buildExecutor(structure string, mode kstm.ShardMode, workers, depth, threshold int, migrate, readapt, split bool) (*kstm.Executor, error) {
	kind := txds.Kind(structure)
	if split && structure != structureCounters {
		return nil, fmt.Errorf("-split requires -structure counters (dictionary ops do not commute)")
	}
	if structure == structureCounters {
		if mode != kstm.ShardShared {
			return nil, fmt.Errorf("-structure counters requires -sharding shared")
		}
		if migrate {
			return nil, fmt.Errorf("-structure counters is incompatible with -migrate")
		}
		opts := []core.Option{
			core.WithBackpressure(core.BackpressureReject),
			core.WithQueueDepth(depth),
			core.WithWorkload(harness.NewCounterWorkload(txds.NewCounters(harness.ContentionCounters))),
			core.WithSchedulerKind(core.SchedFixed, 0, harness.ContentionCounters-1),
		}
		if workers > 0 {
			opts = append(opts, core.WithWorkers(workers))
		}
		if split {
			opts = append(opts, core.WithSplitPhase())
		}
		return core.NewExecutor(opts...)
	}
	opts := []core.Option{
		core.WithBackpressure(core.BackpressureReject),
		core.WithQueueDepth(depth),
	}
	if workers > 0 {
		opts = append(opts, core.WithWorkers(workers))
	}
	switch mode {
	case kstm.ShardShared:
		if migrate {
			return nil, fmt.Errorf("-migrate requires -sharding perworker (shared state needs no migration)")
		}
		set, err := txds.New(kind)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithWorkload(harness.NewDictWorkload(set)))
	case kstm.ShardPerWorker:
		n := workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		factory := harness.NewDictFactory(kind, n)
		if migrate {
			// Wire clients dispatch on their own (key-masked) Task.Key —
			// the dictionary key, not a hash output — so hand-off ranges
			// must be dictionary-key ranges too (key-range stores), or a
			// hash table would migrate bucket ranges the partition never
			// moved.
			factory = harness.NewKeyRangeDictFactory(kind)
			opts = append(opts, core.WithMigration(core.MigrateOnRepartition))
		}
		opts = append(opts,
			core.WithSharding(core.ShardPerWorker),
			core.WithWorkloadFactory(factory),
			core.WithWorkers(n))
	default:
		return nil, fmt.Errorf("unknown -sharding %q (want shared or perworker)", mode)
	}
	aopts := []core.AdaptiveOption{core.WithThreshold(threshold)}
	if readapt {
		aopts = append(aopts, core.WithReAdaptation())
	}
	opts = append(opts, core.WithSchedulerKind(core.SchedAdaptive, 0, kstm.MaxKey, aopts...))
	return core.NewExecutor(opts...)
}

// drain runs a graceful executor drain bounded by timeout (0 = unbounded).
// On expiry it forces Stop: in-flight transactions still finish (workers
// exit after their current task), but the queued backlog settles with
// ErrStopped and lands under ExecStats.Cancelled — a wedged or slow-drained
// backlog cannot hold shutdown hostage (DESIGN.md §10.2).
func drain(ex *kstm.Executor, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- ex.Drain() }()
	if timeout <= 0 {
		return <-done
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		log.Printf("kstmd: drain exceeded %v, forcing stop", timeout)
		ex.Stop()
		return <-done
	}
}

// logStats prints one operator line: executor counters (with the corrected
// Completed/Cancelled split) plus the server's own view. It is a statsfold
// target of server.Stats: every server counter must appear here, so the
// pairs below report executor-side/server-side (tasks vs responses — they
// diverge when response delivery is best-effort, e.g. cancellation).
func logStats(ex *kstm.Executor, srv *server.Server) {
	st := ex.Stats()
	ss := srv.Stats()
	log.Printf("kstmd: state=%s conns=%d/%d req=%d resp=%d inline=%d/%d completed=%d cancelled=%d/%d busy=%d deadline=%d/%d admitted=%d admit_rej=%d failed=%d/%d stopped=%d badreq=%d proto_err=%d imbalance=%.2f wait_p95=%v svc_p95=%v migrations=%d/%dkeys/%v split=%dkeys/%depochs/%dparked/%v",
		st.State, ss.OpenConns, ss.Conns, ss.Requests, ss.Responses, st.Borrowed, ss.Inline,
		st.Completed, st.Cancelled, ss.Cancelled, ss.Busy,
		st.DeadlineExpired, ss.Deadline, ss.Admitted, ss.AdmitRejected,
		st.Failed, ss.Failed,
		ss.Stopped, ss.BadRequest, ss.ProtocolErrors,
		st.LoadImbalance(), st.Wait.P95, st.Service.P95,
		ss.Migrations.Epochs, ss.Migrations.KeysMoved, time.Duration(ss.Migrations.PauseNs),
		ss.Split.Keys, ss.Split.MergedEpochs, ss.Split.ParkedTasks, time.Duration(ss.Split.MergeNs))
}
