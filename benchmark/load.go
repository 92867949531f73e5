package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kstm"
	"kstm/client"
	"kstm/internal/rng"
	"kstm/server"
)

// traceEvery is the traced window's sampling interval, in requests.
const traceEvery = 64

// recorder is one submitter's tally for one tick.
type recorder struct {
	lat    lathist // per-op latency
	ok     uint64
	failed uint64 // answered with an error
	// lag and refused belong to the sending side, which in the open loop
	// is another goroutine than the one that books answers.
	lag     lathist // open loop: send start minus intended send time
	refused uint64  // the submission call itself failed
}

// span is one sampled request: the root op and the durations of its
// children, all in nanoseconds, start relative to the run's clock origin.
type span struct {
	id    uint64
	start int64 // submit call (closed loop) or intended send time (open loop)
	op    int64 // start -> result in hand
	late  int64 // open loop: intended send time -> send start
	call  int64 // inside SubmitAsync / DoAsync
	wait  int64 // wire: inside Call.Wait
	queue int64 // the executor's reported queue wait
	exec  int64 // the executor's reported execution time
}

// submitter is one load-generating goroutine's state (for the open loop, a
// sender and its reaper share one).
type submitter struct {
	id  int
	src *source
	rec []*recorder // by tick; its length is the stop tick
	// sent and done are read live at a window's end for the backlog.
	sent, done atomic.Uint64
	// unanswered counts requests that failed or never settled after the
	// load stopped.
	unanswered uint64
	spans      []span // preallocated; appended in the traced window only
	_          [64]byte
}

// reading is the cheap outside view taken at every tick boundary.
type reading struct {
	at      int64   // ns since the clock origin
	cpu     float64 // process user+sys seconds
	mallocs uint64  // cumulative heap objects allocated, tiny ones included
	sent    uint64
	done    uint64
}

// snapshot adds the views only the window's two ends need.
type snapshot struct {
	reading
	ex  kstm.ExecStats
	srv server.Stats
	ru  syscall.Rusage
	mem runtime.MemStats
}

// loadRun drives one workload's traffic through its ticks.
type loadRun struct {
	w  *workload
	st *stack
	// tick numbers the stretch of the load in force; a result belongs to
	// the tick it arrives in. Tick 0 is the warm-up (discarded: the
	// scheduler adapts, heap and TCP buffers grow); ticks 1..slices are the
	// untraced window, cut into one-second slices so that each end-to-end
	// metric can be reported as a quartile over slices — a disturbance that
	// lasts a fraction of a second then moves one slice, not the run; the
	// next tick, if any, is the traced window (1 request in 64 records
	// spans); the last stops the load.
	tick  atomic.Int32
	base  time.Time
	total time.Duration // planned length of the whole load
	subs  []*submitter
	// traceTick is the traced window's tick (-1 without one); stopTick ends
	// the load.
	traceTick, stopTick int32
	// drainCtx bounds the wait for answers still outstanding at the stop.
	drainCtx context.Context
}

func (r *loadRun) now() int64 { return int64(time.Since(r.base)) }

// read takes a reading; ru, when given, keeps the whole rusage.
func (r *loadRun) read(ru *syscall.Rusage) reading {
	rd := reading{at: r.now()}
	for _, sub := range r.subs {
		rd.sent += sub.sent.Load()
		rd.done += sub.done.Load()
	}
	if ru == nil {
		ru = new(syscall.Rusage)
	}
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, ru)
	rd.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	// runtime/metrics reads without stopping the world, unlike ReadMemStats;
	// the two counters together are MemStats.Mallocs.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(allocs)
	rd.mallocs = allocs[0].Value.Uint64() + allocs[1].Value.Uint64()
	return rd
}

func (r *loadRun) snapshot() snapshot {
	s := snapshot{ex: r.st.ex.Stats()}
	if r.st.srv != nil {
		s.srv = r.st.srv.Stats()
	}
	s.reading = r.read(&s.ru)
	runtime.ReadMemStats(&s.mem)
	return s
}

// complete books one settled request.
func (s *submitter) complete(tk int32, t kstm.Task, expect int64, v any, err error, lat int64) {
	s.done.Add(1)
	if int(tk) < len(s.rec) {
		rec := s.rec[tk]
		if err != nil {
			rec.failed++
		} else {
			rec.ok++
			rec.lat.observe(lat)
		}
	} else if err != nil {
		s.unanswered++
	}
	if err == nil {
		s.src.observe(t, v, expect)
	}
}

// refuse books a request whose submission call failed.
func (s *submitter) refuse(tk int32) {
	s.done.Add(1)
	if int(tk) < len(s.rec) {
		s.rec[tk].refused++
	}
}

// sampled reports whether request seq of a submitter records spans.
func (r *loadRun) sampled(tk int32, seq uint64) bool {
	return tk == r.traceTick && seq%traceEvery == 0
}

// windowLoop is the in-process closed loop: wait for the oldest future of
// the ring, book it, submit a new task in its place. One clock read per
// operation serves as the old request's end and the new one's start.
func (r *loadRun) windowLoop(s *submitter) {
	type slot struct {
		fut    *kstm.Future
		task   kstm.Task
		expect int64
		t0     int64
		call   int64 // SubmitAsync duration, sampled requests only
		seq    uint64
	}
	ex, ctx := r.st.ex, context.Background()
	ring := make([]slot, window)
	settle := func(sl *slot, waitCtx context.Context) int64 {
		res, err := sl.fut.Wait(waitCtx)
		sl.fut = nil
		now, tk := r.now(), r.tick.Load()
		s.complete(tk, sl.task, sl.expect, res.Value, err, now-sl.t0)
		if sl.call != 0 && err == nil && len(s.spans) < cap(s.spans) {
			s.spans = append(s.spans, span{id: uint64(s.id)<<48 | sl.seq, start: sl.t0,
				op: now - sl.t0, call: sl.call, queue: int64(res.Wait), exec: int64(res.Exec)})
		}
		return now
	}
	var seq uint64
	for i := 0; ; i = (i + 1) % window {
		sl := &ring[i]
		var now int64
		if sl.fut != nil {
			now = settle(sl, ctx)
		} else {
			now = r.now()
		}
		tk := r.tick.Load()
		if tk == r.stopTick {
			break
		}
		seq++
		task, expect := s.src.next(float64(now) / float64(r.total))
		trace := r.sampled(tk, seq)
		var callStart int64
		if trace {
			callStart = r.now()
		}
		fut, err := ex.SubmitAsync(ctx, task)
		s.sent.Add(1)
		if err != nil {
			s.refuse(tk)
			continue
		}
		*sl = slot{fut: fut, task: task, expect: expect, t0: now, seq: seq}
		if trace {
			sl.call = max(r.now()-callStart, 1)
		}
	}
	for i := range ring {
		if ring[i].fut != nil {
			settle(&ring[i], r.drainCtx)
		}
	}
}

// syncLoop is the loopback closed loop: one request at a time on this
// submitter's connection.
func (r *loadRun) syncLoop(s *submitter) {
	cl, ctx := r.st.clients[s.id], context.Background()
	var seq uint64
	t0 := r.now()
	for {
		tk := r.tick.Load()
		if tk == r.stopTick {
			return
		}
		seq++
		task, expect := s.src.next(0)
		call, err := cl.DoAsync(ctx, task)
		s.sent.Add(1)
		if err != nil {
			// A failed send means the connection is gone; every later
			// request would fail the same way.
			s.refuse(tk)
			return
		}
		var sentAt int64
		if r.sampled(tk, seq) {
			sentAt = r.now()
		}
		res, err := call.Wait(ctx)
		now := r.now()
		s.complete(r.tick.Load(), task, expect, res.Value, err, now-t0)
		if sentAt != 0 && err == nil && len(s.spans) < cap(s.spans) {
			s.spans = append(s.spans, span{id: uint64(s.id)<<48 | seq, start: t0, op: now - t0,
				call: sentAt - t0, wait: now - sentAt, queue: int64(res.Wait), exec: int64(res.Exec)})
		}
		t0 = now
	}
}

// pending is one open-loop request on its way from the sender to the reaper.
type pending struct {
	call   *client.Call
	task   kstm.Task
	due    int64 // intended send time
	sentAt int64 // sampled requests: DoAsync returned
	late   int64 // send start - due
	seq    uint64
}

// pacedLoop is the open loop on one connection: a sender that follows an
// absolute Poisson schedule whatever the system does, and a passive reaper
// that times each answer from the request's intended send time.
func (r *loadRun) pacedLoop(s *submitter, seed uint64, rate float64) error {
	pc, err := newPacer()
	if err != nil {
		return err
	}
	defer pc.close()
	// The buffer bounds the requests in flight on one connection; at the
	// frozen rate it is a fifth of a second of traffic, far beyond any
	// backlog a valid run shows, and it is never the limit that paces.
	inflight := make(chan pending, 8192)
	var reaped sync.WaitGroup
	reaped.Add(1)
	go func() {
		defer reaped.Done()
		r.reap(s, inflight)
	}()
	defer reaped.Wait()
	defer close(inflight)

	cl, ctx := r.st.clients[s.id], context.Background()
	arrivals := rng.New(seed ^ 0xa0761d6478bd642f)
	gap := 1e9 / rate
	due := r.now() + int64(gap*arrivals.ExpFloat64())
	var seq uint64
	for {
		now := r.now()
		if due > now {
			// Below a few microseconds the timer's own cost exceeds the
			// wait; yield and look again.
			if due-now < 5000 {
				runtime.Gosched()
			} else if err := pc.sleep(due - now); err != nil {
				return err
			}
			continue
		}
		tk := r.tick.Load()
		if tk == r.stopTick {
			return nil
		}
		seq++
		task, _ := s.src.next(0)
		call, err := cl.DoAsync(ctx, task)
		s.sent.Add(1)
		if err != nil {
			s.refuse(tk)
			return nil
		}
		p := pending{call: call, task: task, due: due, late: now - due, seq: seq}
		if r.sampled(tk, seq) {
			p.sentAt = r.now()
		}
		s.rec[tk].lag.observe(p.late)
		inflight <- p
		due += int64(gap * arrivals.ExpFloat64())
	}
}

// reap waits for the open loop's answers in send order.
func (r *loadRun) reap(s *submitter, inflight <-chan pending) {
	ctx := context.Background()
	for p := range inflight {
		if r.tick.Load() == r.stopTick {
			ctx = r.drainCtx
		}
		waitFrom := int64(0)
		if p.sentAt != 0 {
			waitFrom = r.now()
		}
		res, err := p.call.Wait(ctx)
		now := r.now()
		s.complete(r.tick.Load(), p.task, 0, res.Value, err, now-p.due)
		if p.sentAt != 0 && err == nil && len(s.spans) < cap(s.spans) {
			s.spans = append(s.spans, span{id: uint64(s.id)<<48 | p.seq, start: p.due, op: now - p.due,
				late: p.late, call: p.sentAt - (p.due + p.late), wait: now - waitFrom,
				queue: int64(res.Wait), exec: int64(res.Exec)})
		}
	}
}

// loadResult is what a finished load hands to the metrics.
type loadResult struct {
	subs []*submitter
	// slices are the readings at the untraced window's slice boundaries:
	// slice k of the window is tick k+1 and runs from slices[k] to
	// slices[k+1].
	slices []reading
	// warmEnd, measureEnd and traceEnd are the snapshots at the ends of the
	// warm-up, the untraced and the traced window (traceEnd is zero without
	// a traced window).
	warmEnd, measureEnd, traceEnd snapshot
	traceTick                     int32
}

// runLoad starts one submitter per worker, walks the ticks on the wall
// clock, and returns once every submitter has collected its answers.
func runLoad(w *workload, st *stack, n int, seed uint64, cfg runConfig) (*loadResult, error) {
	total := cfg.warmup + cfg.measure + cfg.traced
	drainCtx, cancel := context.WithTimeout(context.Background(), total+10*time.Second)
	defer cancel()
	slices := max(1, int(cfg.measure/time.Second))
	r := &loadRun{w: w, st: st, base: time.Now(), total: total, drainCtx: drainCtx,
		traceTick: -1, stopTick: int32(slices) + 1}
	if cfg.traced > 0 {
		r.traceTick, r.stopTick = r.stopTick, r.stopTick+1
	}
	for i := 0; i < n; i++ {
		src, err := newSource(w, seed, i)
		if err != nil {
			return nil, err
		}
		s := &submitter{id: i, src: src, rec: make([]*recorder, r.stopTick)}
		for tk := range s.rec {
			s.rec[tk] = &recorder{}
		}
		if cfg.traced > 0 {
			s.spans = make([]span, 0, 1<<16)
		}
		r.subs = append(r.subs, s)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, s := range r.subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w.load {
			case loadWindow:
				r.windowLoop(s)
			case loadSync:
				r.syncLoop(s)
			case loadPaced:
				errs[i] = r.pacedLoop(s, seed+uint64(i)*0x9e37, pacedRatePerConn)
			}
		}()
	}
	// Boundaries sit on an absolute schedule, so a late wake-up shortens the
	// next tick instead of pushing every later one.
	until := func(d time.Duration) { time.Sleep(time.Until(r.base.Add(d))) }
	res := &loadResult{subs: r.subs, traceTick: r.traceTick}
	until(cfg.warmup)
	r.tick.Store(1)
	res.warmEnd = r.snapshot()
	res.slices = append(res.slices, res.warmEnd.reading)
	for k := 1; k <= slices; k++ {
		until(cfg.warmup + cfg.measure*time.Duration(k)/time.Duration(slices))
		r.tick.Store(int32(k) + 1)
		if k < slices {
			res.slices = append(res.slices, r.read(nil))
		}
	}
	res.measureEnd = r.snapshot()
	res.slices = append(res.slices, res.measureEnd.reading)
	if cfg.traced > 0 {
		until(total)
		r.tick.Store(r.stopTick)
		res.traceEnd = r.snapshot()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
