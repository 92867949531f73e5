// Package sim is a deterministic discrete-event simulator of the paper's
// testbed: a 16-processor SunFire 6800 running the key-based executor over
// DSTM (DESIGN.md §6 documents the substitution). Producers, the dispatch
// policies, per-worker task queues, per-processor caches with coherence,
// bucket/path-granularity transaction conflicts, and finite producer
// bandwidth are all explicit, so the simulator reproduces the *shape* of the
// paper's Figures 3 and 4 — which scheduler wins, by what factor, and where
// the curves flatten — on any host, independent of the host's core count.
package sim

import (
	"container/heap"
	"fmt"

	"kstm/internal/cachesim"
	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/txds"
)

// Params configures one simulated run.
type Params struct {
	// Workers is the worker-thread (processor) count.
	Workers int
	// Producers is the producer-thread count.
	Producers int
	// Scheduler selects the dispatch policy.
	Scheduler core.SchedulerKind
	// Threshold overrides the adaptive sample threshold (0 = paper's
	// 10,000).
	Threshold int
	// ReAdapt enables periodic re-estimation (extension experiments).
	ReAdapt bool
	// Structure picks the benchmark data structure; use Empty for the
	// Figure 4 trivial-transaction test.
	Structure txds.Kind
	// Dist names the key distribution (uniform, gaussian, exponential).
	Dist string
	// Seed drives all pseudo-randomness; equal seeds give identical runs.
	Seed uint64
	// NoExecutor switches to the Figure 1(a) model: each worker
	// generates and executes its own transactions with no queues.
	NoExecutor bool
	// WorkSteal lets idle workers take tasks from other queues.
	WorkSteal bool
	// DurationCycles is the simulated time horizon.
	DurationCycles uint64
	// WarmupCycles excludes the cache-cold, pre-adaptation transient from
	// the measured window (the paper runs a full GC before starting its
	// clock). 0 means DurationCycles/3.
	WarmupCycles uint64
	// ClockHz converts cycles to seconds for throughput reporting.
	ClockHz float64

	// Cost model, in cycles. Zero values take defaults.
	GenCost           uint64 // producer: create one task
	DispatchCost      uint64 // producer: scheduler pick + enqueue
	PopCost           uint64 // worker: dequeue
	QueueTransferCost uint64 // coherence cost of moving a queue node across processors
	HitCost           uint64 // cache hit per block
	MissCost          uint64 // cache miss per block (memory/coherence)
	ConflictCost      uint64 // abort + contention-manager backoff + retry overhead
	QueueCap          int    // producer backpressure bound per queue
	CacheLines        int    // per-processor cache size in lines
	CacheWays         int
	// QueueContentionFactor scales queue-transfer cost with the number of
	// producers per queue: M&S enqueue CAS retries and head/tail line
	// ping-pong grow as more producers share a queue. This is why the
	// paper's executor overhead is ~2x at two workers but "much less
	// pronounced" at higher worker counts (Figure 4), and why the
	// key-partitioning advantage grows with workers (Figure 3). <0
	// disables; 0 means the default.
	QueueContentionFactor float64
}

// Empty is the Figure 4 trivial transaction "structure".
const Empty = emptyKind

// DefaultParams returns the cost model calibrated to the paper's testbed
// scale (1.2 GHz UltraSPARC III, 8 MB L2 at 64-byte lines, memory at a few
// hundred cycles).
func DefaultParams() Params {
	return Params{
		Workers:               2,
		Producers:             8,
		Scheduler:             core.SchedRoundRobin,
		Structure:             txds.KindHashTable,
		Dist:                  "uniform",
		Seed:                  1,
		DurationCycles:        120_000_000, // 100 simulated milliseconds
		WarmupCycles:          48_000_000,
		ClockHz:               1.2e9,
		GenCost:               300,
		DispatchCost:          200,
		PopCost:               150,
		QueueTransferCost:     250,
		HitCost:               15,
		MissCost:              450, // dirty/coherence miss on a 1.2 GHz SMP
		ConflictCost:          2500,
		QueueCap:              1024,
		CacheLines:            1 << 17, // 8 MB / 64 B
		CacheWays:             8,
		QueueContentionFactor: 0.5,
	}
}

// Result reports a simulated run.
type Result struct {
	Workers    int
	Producers  int
	Scheduler  string
	Structure  string
	Dist       string
	Completed  uint64
	Produced   uint64
	Conflicts  uint64
	PerWorker  []uint64
	CacheHits  uint64
	CacheMiss  uint64
	SimSeconds float64
}

// Throughput returns completed transactions per simulated second — the
// y-axis of Figures 3 and 4.
func (r Result) Throughput() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.Completed) / r.SimSeconds
}

// LoadImbalance returns max per-worker share over the ideal share.
func (r Result) LoadImbalance() float64 {
	if r.Completed == 0 || len(r.PerWorker) == 0 {
		return 1
	}
	ideal := float64(r.Completed) / float64(len(r.PerWorker))
	worst := 0.0
	for _, n := range r.PerWorker {
		if v := float64(n) / ideal; v > worst {
			worst = v
		}
	}
	return worst
}

// HitRate returns the aggregate cache hit rate across workers.
func (r Result) HitRate() float64 {
	total := r.CacheHits + r.CacheMiss
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// ContentionRate returns conflicts per completed transaction (§4.4).
func (r Result) ContentionRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Conflicts) / float64(r.Completed)
}

// String summarizes the run.
func (r Result) String() string {
	return fmt.Sprintf("sim %s/%s/%s w=%d p=%d: %.3g txn/s (hit %.2f, imb %.2f, cont %.4f)",
		r.Structure, r.Dist, r.Scheduler, r.Workers, r.Producers,
		r.Throughput(), r.HitRate(), r.LoadImbalance(), r.ContentionRate())
}

// event kinds, ordered for deterministic tie-breaking.
const (
	evProducer = iota
	evWorker
)

type event struct {
	t    uint64
	kind int
	id   int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) push(t uint64, kind, id int) {
	heap.Push(h, event{t: t, kind: kind, id: id})
}

type simTask struct {
	key     uint64
	dictKey uint32
	insert  bool
}

type simWorker struct {
	cache     *cachesim.Cache
	queue     []simTask
	head      int
	idle      bool
	busyUntil uint64
	// Current in-flight access sets (copies) for conflict detection.
	curReads  []uint32
	curWrites []uint32
	completed uint64
	conflicts uint64
	enqueued  uint64      // tasks routed to this queue (queue-pressure share)
	src       dist.Source // NoExecutor mode: private source
}

func (w *simWorker) qlen() int { return len(w.queue) - w.head }

func (w *simWorker) pop() (simTask, bool) {
	if w.head >= len(w.queue) {
		return simTask{}, false
	}
	t := w.queue[w.head]
	w.head++
	if w.head > 4096 && w.head*2 > len(w.queue) {
		n := copy(w.queue, w.queue[w.head:])
		w.queue = w.queue[:n]
		w.head = 0
	}
	return t, true
}

type simProducer struct {
	src     dist.Source
	pending simTask
	blocked bool
}

type simulator struct {
	p         Params
	model     accessModel
	sched     core.Scheduler
	workers   []simWorker
	producers []simProducer
	blockedOn [][]int // per worker queue: producer ids awaiting space
	versions  []uint32
	events    eventHeap
	produced  uint64
}

// Run simulates one configuration and returns its result.
func Run(p Params) (Result, error) {
	d := DefaultParams()
	if p.ClockHz == 0 {
		p.ClockHz = d.ClockHz
	}
	if p.DurationCycles == 0 {
		p.DurationCycles = d.DurationCycles
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = p.DurationCycles / 3
	}
	if p.WarmupCycles >= p.DurationCycles {
		return Result{}, fmt.Errorf("sim: warmup %d >= duration %d", p.WarmupCycles, p.DurationCycles)
	}
	switch {
	case p.QueueContentionFactor < 0:
		p.QueueContentionFactor = 0
	case p.QueueContentionFactor == 0:
		p.QueueContentionFactor = d.QueueContentionFactor
	}
	if p.GenCost == 0 {
		p.GenCost = d.GenCost
	}
	if p.DispatchCost == 0 {
		p.DispatchCost = d.DispatchCost
	}
	if p.PopCost == 0 {
		p.PopCost = d.PopCost
	}
	if p.QueueTransferCost == 0 {
		p.QueueTransferCost = d.QueueTransferCost
	}
	if p.HitCost == 0 {
		p.HitCost = d.HitCost
	}
	if p.MissCost == 0 {
		p.MissCost = d.MissCost
	}
	if p.ConflictCost == 0 {
		p.ConflictCost = d.ConflictCost
	}
	if p.QueueCap == 0 {
		p.QueueCap = d.QueueCap
	}
	if p.CacheLines == 0 {
		p.CacheLines = d.CacheLines
	}
	if p.CacheWays == 0 {
		p.CacheWays = d.CacheWays
	}
	if p.Structure == "" {
		p.Structure = d.Structure
	}
	if p.Dist == "" {
		p.Dist = d.Dist
	}
	if p.Scheduler == "" {
		p.Scheduler = d.Scheduler
	}
	if p.Workers <= 0 {
		return Result{}, fmt.Errorf("sim: Workers = %d, want > 0", p.Workers)
	}
	if !p.NoExecutor && p.Producers <= 0 {
		return Result{}, fmt.Errorf("sim: Producers = %d, want > 0", p.Producers)
	}

	model, err := newModel(p.Structure, p.Seed^0x9e3779b97f4a7c15)
	if err != nil {
		return Result{}, err
	}
	maxKey := uint64(dist.MaxKey)
	if p.Structure == txds.KindHashTable {
		maxKey = txds.DefaultBuckets - 1
	}
	var opts []core.AdaptiveOption
	if p.Threshold > 0 {
		opts = append(opts, core.WithThreshold(p.Threshold))
	}
	if p.ReAdapt {
		opts = append(opts, core.WithReAdaptation())
	}
	sched, err := core.NewScheduler(p.Scheduler, 0, maxKey, p.Workers, opts...)
	if err != nil {
		return Result{}, err
	}

	s := &simulator{
		p:         p,
		model:     model,
		sched:     sched,
		workers:   make([]simWorker, p.Workers),
		blockedOn: make([][]int, p.Workers),
		versions:  make([]uint32, BlockSpace),
	}
	for i := range s.workers {
		s.workers[i].cache = cachesim.New(p.CacheLines, p.CacheWays)
		s.workers[i].idle = true
	}

	if p.NoExecutor {
		// Figure 1(a): workers self-produce. Seed each from the run
		// seed so streams are independent and deterministic.
		for i := range s.workers {
			src, err := dist.ByName(p.Dist, p.Seed+uint64(i)*0x51_7c_c1)
			if err != nil {
				return Result{}, err
			}
			s.workers[i].src = src
			s.events.push(uint64(i), evWorker, i)
		}
	} else {
		s.producers = make([]simProducer, p.Producers)
		for i := range s.producers {
			src, err := dist.ByName(p.Dist, p.Seed+uint64(i)*0x51_7c_c1)
			if err != nil {
				return Result{}, err
			}
			s.producers[i].src = src
			s.events.push(uint64(i), evProducer, i)
		}
	}
	heap.Init(&s.events)
	s.run()

	res := Result{
		Workers:    p.Workers,
		Producers:  p.Producers,
		Scheduler:  sched.Name(),
		Structure:  model.name(),
		Dist:       p.Dist,
		Produced:   s.produced,
		PerWorker:  make([]uint64, p.Workers),
		SimSeconds: float64(p.DurationCycles-p.WarmupCycles) / p.ClockHz,
	}
	if p.NoExecutor {
		res.Scheduler = "none"
		res.Producers = 0
	}
	for i := range s.workers {
		w := &s.workers[i]
		res.PerWorker[i] = w.completed
		res.Completed += w.completed
		res.Conflicts += w.conflicts
		h, m := w.cache.Stats()
		res.CacheHits += h
		res.CacheMiss += m
	}
	return res, nil
}

func (s *simulator) run() {
	horizon := s.p.DurationCycles
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		if ev.t >= horizon {
			return
		}
		switch ev.kind {
		case evProducer:
			s.producerStep(ev.id, ev.t)
		case evWorker:
			if s.p.NoExecutor {
				s.selfStep(ev.id, ev.t)
			} else {
				s.workerStep(ev.id, ev.t)
			}
		}
	}
}

// nextTask draws from a source and forms a task.
func (s *simulator) makeTask(src dist.Source) simTask {
	v := src.Next()
	dictKey, insert := dist.Split(v)
	return simTask{key: s.model.txnKey(dictKey), dictKey: dictKey, insert: insert}
}

// producerStep: generate one task and dispatch it (Figure 1c: dispatch is
// inline in the producer).
func (s *simulator) producerStep(id int, now uint64) {
	p := &s.producers[id]
	t := s.makeTask(p.src)
	w := s.sched.Pick(t.key) % len(s.workers)
	if s.workers[w].qlen() >= s.p.QueueCap {
		// Backpressure: park until worker w dequeues.
		p.pending = t
		p.blocked = true
		s.blockedOn[w] = append(s.blockedOn[w], id)
		return
	}
	s.enqueue(w, t, now)
	s.events.push(now+s.p.GenCost+s.p.DispatchCost, evProducer, id)
}

// enqueue places a task and wakes an idle worker: the target itself, or —
// with work stealing on and the target busy — the next idle worker after it,
// which would otherwise never see work land on a peer's queue.
func (s *simulator) enqueue(w int, t simTask, now uint64) {
	wk := &s.workers[w]
	wk.queue = append(wk.queue, t)
	wk.enqueued++
	s.produced++
	if wk.idle || !s.p.WorkSteal {
		s.wake(w, now)
		return
	}
	for off := 1; off < len(s.workers); off++ {
		if j := (w + off) % len(s.workers); s.workers[j].idle {
			s.wake(j, now)
			return
		}
	}
}

// wake schedules idle worker w's next step, no earlier than the end of its
// last task.
func (s *simulator) wake(w int, now uint64) {
	wk := &s.workers[w]
	if !wk.idle {
		return
	}
	wk.idle = false
	start := now
	if wk.busyUntil > start {
		start = wk.busyUntil
	}
	s.events.push(start, evWorker, w)
}

// workerStep: pop and execute one task (Figure 1c worker loop).
func (s *simulator) workerStep(id int, now uint64) {
	wk := &s.workers[id]
	t, ok := wk.pop()
	if !ok && s.p.WorkSteal {
		for off := 1; off < len(s.workers); off++ {
			v := &s.workers[(id+off)%len(s.workers)]
			if t, ok = v.pop(); ok {
				s.unblock((id+off)%len(s.workers), now)
				break
			}
		}
	}
	if !ok {
		wk.idle = true
		return
	}
	s.unblock(id, now)

	plan := s.model.plan(t.dictKey, t.insert)
	service := s.queueOverhead(wk) + plan.baseCost
	service += s.memoryCost(wk, plan)
	service += s.conflictCost(id, now, plan)
	s.retire(wk, plan)

	end := now + service
	if end <= s.p.DurationCycles && end > s.p.WarmupCycles {
		wk.completed++
	}
	wk.busyUntil = end
	s.events.push(end, evWorker, id)
}

// queueOverhead is the worker-side cost of taking one task from this
// worker's queue. The transfer component grows with the number of producers
// effectively feeding the queue (its share of all dispatched tasks times the
// producer count): more producers on one M&S queue means more tail-CAS
// retries and more head/tail cache-line ping-pong at the consumer. A queue
// that receives everything (fixed partitioning under a skewed distribution)
// keeps full contention no matter how many idle workers exist.
func (s *simulator) queueOverhead(wk *simWorker) uint64 {
	share := 1.0 / float64(len(s.workers))
	if s.produced > 0 {
		share = float64(wk.enqueued) / float64(s.produced)
	}
	perQueue := float64(s.p.Producers) * share
	return s.p.PopCost + uint64(float64(s.p.QueueTransferCost)*(1+s.p.QueueContentionFactor*perQueue))
}

// selfStep: Figure 1(a) — generate and execute inline, no queues.
func (s *simulator) selfStep(id int, now uint64) {
	wk := &s.workers[id]
	t := s.makeTask(wk.src)
	s.produced++
	plan := s.model.plan(t.dictKey, t.insert)
	service := s.p.GenCost + plan.baseCost
	service += s.memoryCost(wk, plan)
	service += s.conflictCost(id, now, plan)
	s.retire(wk, plan)
	end := now + service
	if end <= s.p.DurationCycles && end > s.p.WarmupCycles {
		wk.completed++
	}
	wk.busyUntil = end
	s.events.push(end, evWorker, id)
}

// unblock resumes one producer parked on worker w's queue, if any.
func (s *simulator) unblock(w int, now uint64) {
	if len(s.blockedOn[w]) == 0 {
		return
	}
	id := s.blockedOn[w][0]
	s.blockedOn[w] = s.blockedOn[w][1:]
	p := &s.producers[id]
	p.blocked = false
	s.enqueue(w, p.pending, now)
	s.events.push(now+s.p.GenCost+s.p.DispatchCost, evProducer, id)
}

// memoryCost charges the plan's block accesses through the worker's cache.
// Writes bump the global block version first, so the writer holds the fresh
// copy and every other processor's copy is invalidated — the coherence
// behaviour that rewards key partitioning. A write to a block the same plan
// just read is an ownership upgrade: the read already paid the transfer, so
// the store costs only a hit.
func (s *simulator) memoryCost(wk *simWorker, plan accessPlan) uint64 {
	var c uint64
	for _, b := range plan.reads {
		if wk.cache.Access(b, s.versions[b]) {
			c += s.p.HitCost
		} else {
			c += s.p.MissCost
		}
	}
	for _, b := range plan.writes {
		s.versions[b]++
		upgraded := false
		for _, rb := range plan.reads {
			if rb == b {
				upgraded = true
				break
			}
		}
		if upgraded {
			wk.cache.Install(b, s.versions[b])
			c += s.p.HitCost
			continue
		}
		if wk.cache.Access(b, s.versions[b]) {
			c += s.p.HitCost
		} else {
			c += s.p.MissCost
		}
	}
	return c
}

// conflictCost detects overlap between this task's access sets and every
// other in-flight transaction (Bernstein's condition: write/write or
// write/read on the same block), charging abort-and-retry time.
func (s *simulator) conflictCost(id int, now uint64, plan accessPlan) uint64 {
	var hits uint64
	wk := &s.workers[id]
	for i := range s.workers {
		if i == id {
			continue
		}
		v := &s.workers[i]
		if v.busyUntil <= now {
			continue
		}
		if overlaps(plan, v) {
			hits++
			if hits >= 3 {
				break
			}
		}
	}
	if hits > 0 {
		if now > s.p.WarmupCycles {
			wk.conflicts += hits
		}
		return hits * (s.p.ConflictCost + plan.baseCost)
	}
	return 0
}

// retire records the plan as the worker's in-flight access sets. Only the
// conflict-relevant reads (the post-early-release read set) are kept.
func (s *simulator) retire(wk *simWorker, plan accessPlan) {
	wk.curReads = append(wk.curReads[:0], plan.confReads...)
	wk.curWrites = append(wk.curWrites[:0], plan.writes...)
}

// overlaps applies Bernstein's condition between the new plan and a
// worker's in-flight sets: a conflict needs a common block with at least
// one writer.
func overlaps(plan accessPlan, v *simWorker) bool {
	for _, b := range plan.writes {
		for _, ob := range v.curWrites {
			if b == ob {
				return true
			}
		}
		for _, ob := range v.curReads {
			if b == ob {
				return true
			}
		}
	}
	for _, b := range plan.confReads {
		for _, ob := range v.curWrites {
			if b == ob {
				return true
			}
		}
	}
	return false
}
