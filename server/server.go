// Package server is the kstmd network front-end: it exposes a running
// kstm.Executor over TCP (or any net.Listener) speaking the internal/wire
// protocol. One goroutine per connection reads request frames, submits them
// to the executor, and a per-connection writer streams responses back — out
// of order, as tasks complete, so a pipelining client is never head-of-line
// blocked on a slow transaction. A request whose owner worker is parked runs
// on the reader itself (caller-runs), and the reader answers a burst of such
// requests with one flush, made when its next read could block.
//
// Error mapping (see DESIGN.md "Network front-end" for the full table):
//
//   - reject-mode backpressure (kstm.ErrQueueFull)   → StatusBusy
//   - connection drop / per-connection cancellation  → StatusCancelled
//     (the executor abandons queued tasks; ExecStats.Cancelled counts them)
//   - executor draining or stopped                   → StatusStopped
//   - opcode above the configured maximum            → StatusBadRequest
//   - workload hard error                            → StatusError + message
//
// Lifecycle: Serve accepts until its context is cancelled or Close is
// called. A graceful shutdown (cmd/kstmd on SIGTERM) first drains the
// executor — in-flight transactions finish, new requests answer
// StatusStopped — then closes the listener and connections.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kstm"
	"kstm/internal/wire"
)

// Stats are the server's own counters, one step above ExecStats: what came
// in over the network and how it was answered.
//
// The statsfold contract (kstmvet, DESIGN.md §8): every field must be
// folded by Stats() below and surfaced on the kstmd operator stats line —
// a counter that is incremented but never reported is a bug.
//
//kstmvet:statsfold Server.Stats kstm/cmd/kstmd.logStats
type Stats struct {
	// Conns counts connections accepted; OpenConns is the current number.
	Conns, OpenConns uint64
	// Requests counts request frames decoded.
	Requests uint64
	// Responses counts response frames written (all statuses).
	Responses uint64
	// Inline counts responses the read loop wrote itself: a request that
	// ran on the reader because its owner was parked (caller-runs,
	// DESIGN.md §5.2), answered with no hand-off to the writer. A subset
	// of Responses.
	Inline uint64
	// Busy / Stopped / BadRequest / Failed count non-OK responses by
	// status. Cancelled counts tasks abandoned by per-connection
	// cancellation; delivery of their StatusCancelled frames is
	// best-effort, since the cancelling event is usually the connection's
	// own death.
	Busy, Cancelled, Stopped, BadRequest, Failed uint64
	// Deadline counts tasks shed with StatusDeadline: their wire deadline
	// expired while they sat queued and the executor never ran them
	// (ExecStats.DeadlineExpired is the executor-side view).
	Deadline uint64
	// Admitted and AdmitRejected count requests through the per-connection
	// token-bucket admission layer (WithAdmission): rejected requests
	// answer StatusBusy with a retry-after hint BEFORE touching the
	// executor, ahead of queue backpressure. Both stay zero with admission
	// off.
	Admitted, AdmitRejected uint64
	// ProtocolErrors counts connections dropped for undecodable input.
	ProtocolErrors uint64
	// Migrations mirrors the executor's shard-state hand-off counters
	// (ExecStats.Migrations), so an operator reading the server's stats
	// line sees re-partition hand-offs without a second probe; all zero
	// unless the executor migrates (ShardPerWorker under SchedAdaptive).
	Migrations kstm.MigrationStats
	// Split mirrors the executor's split-phase counters (ExecStats.Split)
	// for the same reason; all zero unless the executor runs WithSplitPhase.
	Split kstm.SplitStats
}

// Option configures a Server.
type Option func(*Server)

// WithMaxOp rejects requests whose opcode exceeds op with StatusBadRequest
// before they reach the executor. The default (255) passes every opcode
// through to the workload.
func WithMaxOp(op uint8) Option { return func(s *Server) { s.maxOp = op } }

// WithKeyMask folds every request's 64-bit scheduling key into the
// executor's key space (task.Key = req.Key & mask). Without it a key above
// the scheduler's range clamps onto one worker — a client using natural
// 64-bit keys would silently serialize the whole executor. Zero (the
// default) passes keys through untouched.
func WithKeyMask(mask uint64) Option { return func(s *Server) { s.keyMask = mask } }

// WithMaxArg rejects requests whose dictionary argument exceeds max with
// StatusBadRequest. A migrating executor needs it: hand-off ranges live in
// the masked dispatch-key space, so an Arg outside that space would be
// dispatched by its masked key but never matched by a dictionary-key
// extraction — stranded in its old shard across re-partitions. Bounding
// Arg to the dispatch space (kstmd -sharding perworker uses kstm.MaxKey)
// keeps the read-your-writes guarantee airtight. Zero (the default) accepts
// any Arg.
func WithMaxArg(max uint32) Option { return func(s *Server) { s.maxArg = max } }

// WithLogger sets the connection-error logger (default log.Default; use a
// discarding logger in tests).
func WithLogger(l *log.Logger) Option { return func(s *Server) { s.log = l } }

// WithAdmission enables per-connection token-bucket admission control: each
// connection may submit at most rate requests/second with bursts up to
// burst, and requests over budget answer StatusBusy immediately — with the
// time until the next token in the response's WaitNS as a retry-after hint —
// WITHOUT touching the executor. Admission runs ahead of queue backpressure
// (DESIGN.md §10.2): backpressure protects the executor from accepted work,
// admission protects the executor from ever seeing an abusive client's
// excess. rate <= 0 disables it (the default); burst < 1 is raised to 1.
func WithAdmission(rate float64, burst int) Option {
	return func(s *Server) {
		s.admitRate = rate
		s.admitBurst = max(burst, 1)
	}
}

// WithConnWrapper interposes w on every accepted connection before the
// server reads from it — the hook the internal/fault injector uses to
// corrupt transport behaviour in chaos tests. Production servers leave it
// nil.
func WithConnWrapper(w func(net.Conn) net.Conn) Option {
	return func(s *Server) { s.wrapConn = w }
}

// Server serves one executor over any number of listeners.
type Server struct {
	ex         *kstm.Executor
	maxOp      uint8
	maxArg     uint32
	keyMask    uint64
	admitRate  float64
	admitBurst int
	wrapConn   func(net.Conn) net.Conn
	log        *log.Logger

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	connCtx   context.Context
	connStop  context.CancelFunc
	conns     sync.WaitGroup
	closed    atomic.Bool

	nConns, nOpen, nReq, nResp, nInline        atomic.Uint64
	nBusy, nCancel, nStopped, nBadReq, nFailed atomic.Uint64
	nDeadline, nAdmit, nAdmitRej               atomic.Uint64
	nProtoErr                                  atomic.Uint64
}

// New wraps a (started) executor. The server does not own the executor's
// lifecycle: callers Start it before serving and Drain/Stop it on shutdown.
func New(ex *kstm.Executor, opts ...Option) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ex:        ex,
		maxOp:     255,
		log:       log.Default(),
		listeners: make(map[net.Listener]struct{}),
		connCtx:   ctx,
		connStop:  cancel,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections on ln until ctx is cancelled, Close is called,
// or the listener fails. It always closes ln before returning and returns
// nil on clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Register under the same lock Close uses to sweep listeners, and
	// re-check closed inside it: a Close racing this call either sees the
	// registration and closes ln, or we see closed and bail — either way
	// no listener survives a completed Close.
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// Register under the sweep lock: either Close observes this
		// handler in conns.Wait, or we observe closed and refuse the
		// connection — Close never returns with a handler it can't see.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.nConns.Add(1)
		s.nOpen.Add(1)
		s.conns.Add(1)
		s.mu.Unlock()
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		go func() {
			defer s.conns.Done()
			defer s.nOpen.Add(^uint64(0))
			s.handle(conn)
		}()
	}
}

// Close stops accepting, severs every connection (their queued tasks settle
// as cancelled), and waits for the handlers to exit. For a graceful
// shutdown, Drain the executor first. Safe to call more than once.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// closed is set before taking mu, so a Serve call that wins the lock
	// first still observes it and unregisters itself.
	s.mu.Lock()
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	s.connStop()
	s.conns.Wait()
	return nil
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:          s.nConns.Load(),
		OpenConns:      s.nOpen.Load(),
		Requests:       s.nReq.Load(),
		Responses:      s.nResp.Load(),
		Inline:         s.nInline.Load(),
		Busy:           s.nBusy.Load(),
		Cancelled:      s.nCancel.Load(),
		Stopped:        s.nStopped.Load(),
		BadRequest:     s.nBadReq.Load(),
		Failed:         s.nFailed.Load(),
		Deadline:       s.nDeadline.Load(),
		Admitted:       s.nAdmit.Load(),
		AdmitRejected:  s.nAdmitRej.Load(),
		ProtocolErrors: s.nProtoErr.Load(),
		Migrations:     s.ex.MigrationStats(),
		Split:          s.ex.SplitStats(),
	}
}

// connState bundles one connection's buffers — the inflight slot semaphore,
// the response queue, both bufio halves, and the encode/decode scratch —
// so steady-state connection churn recycles them through connPool instead
// of growing per-conn garbage (the semaphore alone is a 1 KiB channel, the
// bufio pair 64 KiB).
type connState struct {
	inflight chan struct{}
	out      *outQueue
	br       *bufio.Reader
	bw       *bufio.Writer
	// wmu serializes the writer and the read loop's inline responses on bw
	// and encBuf: each holds it around its own encode, write and flush.
	wmu sync.Mutex
	// dirty (read loop only) marks inline responses written to bw since
	// the read loop last flushed. The writer's flushes may have sent them
	// already; a flush of an empty bw costs no syscall.
	dirty   bool
	scratch []byte          // frame-decode buffer (read loop)
	encBuf  []byte          // frame-encode buffer (under wmu)
	batch   []wire.Response // writer's take() swap buffer
}

var connPool = sync.Pool{New: func() any {
	return &connState{
		inflight: make(chan struct{}, maxInflightPerConn),
		out:      newOutQueue(),
		br:       bufio.NewReaderSize(nil, 32*1024),
		bw:       bufio.NewWriterSize(nil, 32*1024),
		scratch:  make([]byte, 256),
		encBuf:   make([]byte, 0, 4096),
	}
}}

// recycle returns a quiesced connState to the pool. The caller must have
// proven no task callback can still touch it — see handle's slot-accounting
// argument.
func (cs *connState) recycle() {
	cs.out.reset()
	cs.dirty = false
	for i := range cs.batch {
		cs.batch[i] = wire.Response{} // don't pin response values across conns
	}
	cs.batch = cs.batch[:0]
	connPool.Put(cs)
}

// handle runs one connection with exactly TWO goroutines regardless of
// pipelining depth: this read loop, which decodes requests and submits them
// through the executor's callback API (SubmitFuncOrRun — no Future, no bridge
// goroutine per request), and a writer draining the connection's response
// queue. Task completions run a small callback on the settling worker that
// parks the response on the queue and returns. A request whose owner is
// parked runs on this read loop instead and is answered from it (serveReq);
// the loop flushes those answers once no whole frame is left buffered.
func (s *Server) handle(conn net.Conn) {
	// The connection context cancels when the read loop exits (drop, EOF,
	// protocol error) or the server closes: tasks this connection queued
	// are then abandoned by their workers before execution — the
	// cancelled-task semantics ExecStats.Cancelled accounts for.
	ctx, cancel := context.WithCancel(s.connCtx)
	defer cancel()
	// Context cancellation must also unblock the read loop, which parks in
	// conn.Read: without this, Server.Close would wait forever on a
	// connection whose peer stays silent.
	unblock := context.AfterFunc(ctx, func() { conn.Close() })
	defer unblock()

	// Every request holds one slot from decode until its response clears
	// the writer (written, or discarded on a dead connection). A client
	// that pipelines but never reads fills the writer's queue up to this
	// bound, then the read loop blocks in serveReq and TCP backpressure
	// reaches the sender — the buffer cannot grow without limit.
	cs := connPool.Get().(*connState)
	out := cs.out
	// Before the writer starts: the read loop may write inline responses.
	cs.bw.Reset(conn)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeLoop(cs, cancel)
	}()

	// Admission bucket: single-owner (only this read loop touches it), so
	// it needs no lock. One bucket per connection — "per client" at the
	// granularity the server can attribute.
	var admit *tokenBucket
	if s.admitRate > 0 {
		admit = newTokenBucket(s.admitRate, s.admitBurst)
	}

	cs.br.Reset(conn)
	for {
		frame, err := wire.ReadFrame(cs.br, &cs.scratch)
		if err != nil {
			// Only undecodable CONTENT is a protocol error. A clean EOF,
			// a local cancellation, or a mid-frame disconnect
			// (ErrTruncated wraps the io error: peer crashed, reset, or
			// vanished) is ordinary connection churn — a busy server must
			// not count or log every dead client as hostile input.
			if err != io.EOF && ctx.Err() == nil &&
				!errors.Is(err, net.ErrClosed) && !errors.Is(err, wire.ErrTruncated) {
				s.nProtoErr.Add(1)
				s.log.Printf("server: %s: dropping connection: %v", conn.RemoteAddr(), err)
			}
			break
		}
		if frame.Type != wire.TypeRequest {
			s.nProtoErr.Add(1)
			s.log.Printf("server: %s: unexpected frame type %d", conn.RemoteAddr(), frame.Type)
			break
		}
		if !s.serveReq(ctx, cancel, cs, admit, frame.Req) {
			break
		}
		// Flush the burst's inline answers when the next read could block:
		// a frame still buffered is served first, so a pipelined burst
		// costs one write.
		if cs.dirty && !wire.FrameBuffered(cs.br) {
			s.flushInline(cs, cancel)
		}
	}
	// Read side done: cancel queued work and retire the connection without
	// waiting for stragglers — a wedged executor must not pin dead
	// connections (Drain relies on their cancellation propagating). Tasks
	// still in flight settle later on their workers: their callbacks see
	// the dead context, record the fate in the stats, and release their
	// slots; a push that races the writer's exit parks harmlessly on the
	// orphaned queue until both are collected. (An inline task ran to its
	// end on this goroutine before the loop could exit.)
	cancel()
	out.close()
	writerWG.Wait()
	conn.Close()
	// Recycle only when every slot has been released. A slot is held from
	// decode until its task's LAST touch of this connState — the writer
	// releases after writing (post-Wait, the writer is gone), and a
	// dead-connection callback's own release is its final statement — so an
	// empty semaphore proves no straggler can still reach out or inflight.
	// Otherwise the state leaks to the GC, exactly the pre-pool behavior.
	if len(cs.inflight) == 0 {
		cs.recycle()
	}
}

// maxInflightPerConn bounds one connection's outstanding requests (slots
// held from decode to response write); past it the read loop stops decoding
// and TCP backpressure reaches the client.
const maxInflightPerConn = 1024

// serveReq validates and submits one request through SubmitFuncOrRun,
// enqueueing the response (or arranging the completion callback to). If the
// task ran on this goroutine (its owner worker was parked), the read loop
// writes the response into the connection's buffer itself and the next frame
// is read only after that; handle's loop flushes (DESIGN.md §5.2). It returns
// false only when the connection is being torn down.
func (s *Server) serveReq(ctx context.Context, cancel context.CancelFunc, cs *connState, admit *tokenBucket, req wire.Request) bool {
	out, inflight := cs.out, cs.inflight
	s.nReq.Add(1)
	if len(inflight) == cap(inflight) {
		// The acquire below will wait on the writer: first send what this
		// loop answered. Only this loop acquires, so a free slot stays free.
		s.flushInline(cs, cancel)
	}
	select {
	case inflight <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	// Admission runs ahead of everything the executor would charge for:
	// an over-budget client is answered from the read loop — StatusBusy
	// with the time to the next token in WaitNS as a retry-after hint —
	// and its request never contends for a queue slot.
	if admit != nil {
		if retryAfter, ok := admit.take(); !ok {
			s.nAdmitRej.Add(1)
			out.push(wire.Response{
				ID: req.ID, Status: wire.StatusBusy,
				WaitNS: uint64(retryAfter),
				Msg:    "admission rate exceeded",
			})
			return true
		}
		s.nAdmit.Add(1)
	}
	if req.Op > s.maxOp {
		s.nBadReq.Add(1)
		out.push(wire.Response{
			ID: req.ID, Status: wire.StatusBadRequest,
			Msg: fmt.Sprintf("opcode %d above maximum %d", req.Op, s.maxOp),
		})
		return true
	}
	if s.maxArg != 0 && req.Arg > s.maxArg {
		s.nBadReq.Add(1)
		out.push(wire.Response{
			ID: req.ID, Status: wire.StatusBadRequest,
			Msg: fmt.Sprintf("argument %d above maximum %d", req.Arg, s.maxArg),
		})
		return true
	}
	key := req.Key
	if s.keyMask != 0 {
		key &= s.keyMask
	}
	task := kstm.Task{Key: key, Op: kstm.Op(req.Op), Arg: req.Arg}
	id := req.ID
	done := func(res kstm.TaskResult) {
		// Runs on the settling worker: park the response and return. On a
		// dead connection release the slot directly.
		if s.settledDead(ctx, res) {
			<-inflight
			return
		}
		out.push(s.taskResponse(id, res, res.Err))
	}
	// The wire deadline is RELATIVE to receipt; the executor sheds the task
	// with ErrDeadlineExpired if it is still queued past it. Zero (no
	// deadline on the wire) means no deadline.
	res, ran, err := s.ex.SubmitFuncOrRun(ctx, task, time.Duration(req.DeadlineNS), done)
	if ran {
		if !s.settledDead(ctx, res) {
			s.writeInline(cs, cancel, s.taskResponse(id, res, res.Err))
		}
		// Released after the write: an empty semaphore still proves
		// nobody can touch cs (handle's recycle argument).
		<-inflight
		return true
	}
	if err != nil {
		out.push(s.submitError(id, err))
	}
	return true
}

// settledDead reports whether a settled task's connection is already dead.
// There is then no one left to tell, so it classifies the task's true fate
// for the stats (mirroring the executor's own Completed/Cancelled split); the
// caller releases the slot.
func (s *Server) settledDead(ctx context.Context, res kstm.TaskResult) bool {
	if ctx.Err() == nil {
		return false
	}
	switch {
	case errors.Is(res.Err, kstm.ErrStopped):
		s.nStopped.Add(1)
	case errors.Is(res.Err, kstm.ErrDeadlineExpired):
		s.nDeadline.Add(1)
	case errors.Is(res.Err, context.Canceled), errors.Is(res.Err, context.DeadlineExceeded):
		s.nCancel.Add(1)
	}
	return true
}

// writeInline writes one response from the read loop into the connection's
// buffer under its write mutex, leaving the flush to flushInline. A write
// error cancels the connection, as it does in the writer.
func (s *Server) writeInline(cs *connState, cancel context.CancelFunc, resp wire.Response) {
	cs.wmu.Lock()
	var err error
	if cs.encBuf, err = s.writeOne(cs.bw, cs.encBuf, resp); err == nil {
		s.nInline.Add(1)
	}
	cs.wmu.Unlock()
	cs.dirty = true
	if err != nil {
		cancel()
	}
}

// flushInline flushes the read loop's unflushed inline responses, if any.
// A flush error cancels the connection.
func (s *Server) flushInline(cs *connState, cancel context.CancelFunc) {
	if !cs.dirty {
		return
	}
	cs.dirty = false
	cs.wmu.Lock()
	err := cs.bw.Flush()
	cs.wmu.Unlock()
	if err != nil {
		cancel()
	}
}

// tokenBucket is serveReq's per-connection admission meter, in the virtual-
// scheduling (GCRA) formulation: integer-nanos state owned by one read loop
// (no locking), two comparisons and a clock read per request.
type tokenBucket struct {
	interval time.Duration // ns per token (1e9 / rate)
	tau      time.Duration // burst tolerance: (burst-1) * interval
	tat      time.Duration // theoretical arrival time of the next request
	start    time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	iv := time.Duration(float64(time.Second) / rate)
	if iv <= 0 {
		iv = 1
	}
	return &tokenBucket{
		interval: iv,
		tau:      time.Duration(burst-1) * iv,
		start:    time.Now(),
	}
}

// take spends one token. When the bucket is empty it reports ok=false and
// how long until the next request would conform — the retry-after hint.
func (b *tokenBucket) take() (retryAfter time.Duration, ok bool) {
	now := time.Since(b.start)
	tat := max(b.tat, now)
	if tat > now+b.tau {
		return tat - now - b.tau, false
	}
	b.tat = tat + b.interval
	return 0, true
}

// outQueue is one connection's response buffer between task callbacks (any
// worker goroutine) and the connection's writer. push never blocks — the
// bound comes from the inflight slot semaphore, not from here — so a slow
// client can never stall an executor worker.
type outQueue struct {
	mu     sync.Mutex
	buf    []wire.Response
	closed bool
	notify chan struct{} // cap 1: wake the writer, coalescing signals
}

func newOutQueue() *outQueue {
	return &outQueue{notify: make(chan struct{}, 1)}
}

// push parks one response for the writer.
func (q *outQueue) push(resp wire.Response) {
	q.mu.Lock()
	q.buf = append(q.buf, resp)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// reset readies a quiesced queue for the next connection: clear the closed
// mark, drop buffered (never-taken) responses, and drain a stale notify
// token so the next writer does not wake spuriously.
func (q *outQueue) reset() {
	q.mu.Lock()
	q.closed = false
	q.buf = q.buf[:0]
	q.mu.Unlock()
	select {
	case <-q.notify:
	default:
	}
}

// close marks the end of traffic; the writer drains what is buffered and
// exits. Callbacks MAY still push afterwards (the handler closes without
// waiting for in-flight tasks to settle): such pushes land on the orphaned
// buffer, are never taken, and are collected with it — push and take must
// stay safe against that race.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// take blocks until responses are buffered (swapping them into into) or the
// queue is closed and empty.
func (q *outQueue) take(into []wire.Response) ([]wire.Response, bool) {
	for {
		q.mu.Lock()
		if len(q.buf) > 0 {
			into = append(into[:0], q.buf...)
			q.buf = q.buf[:0]
			q.mu.Unlock()
			return into, false
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return into[:0], true
		}
		<-q.notify
	}
}

// writeLoop serializes responses onto the socket, batching what the queue
// delivers together: a burst of n responses goes out as n TypeResponse
// frames in one buffered write, with one flush per burst. A write failure cancels the connection (the read loop
// and pending callbacks then unwind) and the loop keeps draining — slots
// must keep flowing back so the handler's semaphore reclaim terminates.
func (s *Server) writeLoop(cs *connState, cancel context.CancelFunc) {
	out, inflight := cs.out, cs.inflight
	bw := cs.bw
	batch := cs.batch
	defer func() {
		// Hand the (possibly grown) swap buffer back for reuse by the next
		// connection this state serves.
		cs.batch = batch
	}()
	dead := false
	for {
		var closed bool
		batch, closed = out.take(batch)
		if closed {
			if !dead {
				cs.wmu.Lock()
				bw.Flush()
				cs.wmu.Unlock()
			}
			return
		}
		if !dead {
			var werr error
			cs.wmu.Lock()
			cs.encBuf, werr = s.writeSingles(bw, cs.encBuf, batch)
			if werr == nil {
				werr = bw.Flush()
			}
			cs.wmu.Unlock()
			if werr != nil {
				// Socket gone: tear the connection down but keep
				// consuming (and releasing slots) until the handler
				// closes the queue.
				cancel()
				dead = true
			}
		}
		for range batch {
			<-inflight
		}
	}
}

// sanitize replaces a response whose task value is outside the wire
// vocabulary with a per-request error — the request was fine, the workload's
// value type is not encodable; the connection stays up.
func (s *Server) sanitize(resp wire.Response) wire.Response {
	if err := wire.CheckValue(resp.Value); err != nil {
		s.nFailed.Add(1)
		return wire.Response{
			ID: resp.ID, Status: wire.StatusError,
			Msg: fmt.Sprintf("unencodable task value: %v", err),
		}
	}
	return resp
}

// writeSingles writes one TypeResponse frame per response. It returns the
// (possibly grown) encode buffer so the writer's scratch is reused across
// bursts instead of re-allocated per burst.
func (s *Server) writeSingles(bw *bufio.Writer, buf []byte, batch []wire.Response) ([]byte, error) {
	for _, resp := range batch {
		var err error
		if buf, err = s.writeOne(bw, buf, resp); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// writeOne writes one TypeResponse frame, returning the (possibly grown)
// encode buffer.
func (s *Server) writeOne(bw *bufio.Writer, buf []byte, resp wire.Response) ([]byte, error) {
	resp = s.sanitize(resp)
	b, err := wire.AppendResponse(buf[:0], resp)
	if err != nil {
		// Sanitized responses encode; a failure here is a bug, but answer
		// the request rather than wedge the connection.
		b, _ = wire.AppendResponse(buf[:0], wire.Response{
			ID: resp.ID, Status: wire.StatusError, Msg: "encode error",
		})
	}
	if _, werr := bw.Write(b); werr != nil {
		return b, werr
	}
	s.nResp.Add(1)
	return b, nil
}

// submitError maps a SubmitAsync error to a response.
func (s *Server) submitError(id uint64, err error) wire.Response {
	switch {
	case errors.Is(err, kstm.ErrQueueFull):
		s.nBusy.Add(1)
		return wire.Response{ID: id, Status: wire.StatusBusy, Msg: "server busy"}
	case errors.Is(err, kstm.ErrNotRunning), errors.Is(err, kstm.ErrStopped):
		s.nStopped.Add(1)
		return wire.Response{ID: id, Status: wire.StatusStopped, Msg: "server stopping"}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.nCancel.Add(1)
		return wire.Response{ID: id, Status: wire.StatusCancelled, Msg: err.Error()}
	default:
		s.nFailed.Add(1)
		return wire.Response{ID: id, Status: wire.StatusError, Msg: err.Error()}
	}
}

// taskResponse maps a completed (or abandoned) task to a response.
func (s *Server) taskResponse(id uint64, res kstm.TaskResult, err error) wire.Response {
	resp := wire.Response{
		ID:     id,
		WaitNS: uint64(max(res.Wait, 0)),
		ExecNS: uint64(max(res.Exec, 0)),
	}
	switch {
	case err == nil:
		resp.Status = wire.StatusOK
		resp.Value = res.Value
	case errors.Is(err, kstm.ErrStopped):
		s.nStopped.Add(1)
		resp.Status = wire.StatusStopped
		resp.Msg = "server stopping"
	case errors.Is(err, kstm.ErrDeadlineExpired):
		// The request's wire deadline expired in queue; the executor shed
		// it without executing (DESIGN.md §10.1).
		s.nDeadline.Add(1)
		resp.Status = wire.StatusDeadline
		resp.Msg = "deadline expired in queue"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Abandoned before execution under the corrected cancellation
		// accounting: the task never ran.
		s.nCancel.Add(1)
		resp.Status = wire.StatusCancelled
		resp.Msg = err.Error()
	default:
		s.nFailed.Add(1)
		resp.Status = wire.StatusError
		resp.Msg = err.Error()
	}
	return resp
}
