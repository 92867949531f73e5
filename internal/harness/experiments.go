package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/queue"
	"kstm/internal/sim"
	"kstm/internal/stats"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// Mode selects how experiments execute.
type Mode string

// Execution modes.
const (
	// ModeSim runs the discrete-event simulator: deterministic,
	// reproduces the 16-processor testbed shape on any host.
	ModeSim Mode = "sim"
	// ModeReal runs the actual STM and executor on host goroutines.
	// Scaling curves are only meaningful with as many hardware threads
	// as workers.
	ModeReal Mode = "real"
)

// Options configure an experiment run.
type Options struct {
	Mode Mode
	// Runs is the repetition count per data point (the paper uses 10).
	Runs int
	// Threads lists worker counts for the x axis (the paper sweeps 2-16).
	Threads []int
	// DurationCycles overrides the simulated horizon (0 = default).
	DurationCycles uint64
	// RealTasks is the per-point task count in real mode.
	RealTasks int
	// Seed is the base PRNG seed; repetition i uses Seed+i.
	Seed uint64
}

// DefaultOptions mirror the paper's sweep at CI-friendly durations.
func DefaultOptions() Options {
	return Options{
		Mode:      ModeSim,
		Runs:      3,
		Threads:   []int{2, 4, 6, 8, 10, 12, 14, 16},
		RealTasks: 20000,
		Seed:      1,
	}
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Paper cites the figure/table/section being reproduced.
	Paper string
	Run   func(Options) ([]*Table, error)
}

// Experiments returns the registry in DESIGN.md §7 order.
func Experiments() []Experiment {
	exps := []Experiment{}
	for _, d := range dist.Names() {
		d := d
		exps = append(exps, Experiment{
			ID:    "fig3-" + d,
			Title: fmt.Sprintf("Hash table throughput vs. threads, %s keys", d),
			Paper: "Figure 3 (" + d + ")",
			Run: func(o Options) ([]*Table, error) {
				t, err := schedulerSweep(o, txds.KindHashTable, d, 8)
				if err != nil {
					return nil, err
				}
				t.ID = "fig3-" + d
				return []*Table{t}, nil
			},
		})
	}
	exps = append(exps,
		Experiment{
			ID:    "fig4-overhead",
			Title: "Executor overhead: bare threads vs. executor on trivial transactions",
			Paper: "Figure 4",
			Run:   runFig4,
		},
		Experiment{
			ID:    "tr-rbtree",
			Title: "Red-black tree throughput vs. threads (all distributions)",
			Paper: "§4.2/§4.4 tech-report companion",
			Run: func(o Options) ([]*Table, error) {
				return structureSweep(o, txds.KindRBTree, 4)
			},
		},
		Experiment{
			ID:    "tr-sortedlist",
			Title: "Sorted linked list throughput vs. threads (all distributions)",
			Paper: "§4.2/§4.4 tech-report companion",
			Run: func(o Options) ([]*Table, error) {
				return structureSweep(o, txds.KindSortedList, 4)
			},
		},
		Experiment{
			ID:    "tr-contention",
			Title: "Contention frequency (conflicts per committed transaction)",
			Paper: "§4.4 contention data",
			Run:   runContention,
		},
		Experiment{
			ID:    "tr-balance",
			Title: "Per-worker load imbalance by scheduler and distribution",
			Paper: "§3.2/§4.4 load-balance claims",
			Run:   runBalance,
		},
		Experiment{
			ID:    "ablation-threshold",
			Title: "Adaptive sample-threshold sweep (exponential keys)",
			Paper: "§3.2 sample-size analysis (ablation)",
			Run:   runThresholdAblation,
		},
		Experiment{
			ID:    "ablation-steal",
			Title: "Work stealing under fixed partitioning with skewed keys",
			Paper: "§2 load-balancing discussion (ablation)",
			Run:   runStealAblation,
		},
		Experiment{
			ID:    "ablation-readapt",
			Title: "One-shot adaptation vs. re-adaptation under key drift",
			Paper: "§3.2 extension (ablation)",
			Run:   runReAdaptAblation,
		},
		Experiment{
			ID:    "ablation-queue",
			Title: "Task-queue transport comparison, 2 producers → 1 consumer",
			Paper: "§4.1 ConcurrentLinkedQueue choice (ablation)",
			Run:   runQueueAblation,
		},
		Experiment{
			ID:    "ablation-cm",
			Title: "Contention manager comparison on the real STM",
			Paper: "§4.3 Polka choice (ablation)",
			Run:   runCMAblation,
		},
		Experiment{
			ID:    "ablation-sortbatch",
			Title: "Worker-buffer key ordering (real executor)",
			Paper: "§2 buffer-reordering capability (ablation)",
			Run:   runSortBatchAblation,
		},
		Experiment{
			ID:    "sharding",
			Title: "Shared STM vs. per-worker sharded STM, gaussian keys (real executor)",
			Paper: "beyond the paper: sharded executor v2 (ROADMAP)",
			Run:   runSharding,
		},
		Experiment{
			ID:    "faults",
			Title: "Goodput and visibility under injected transport faults (kstmd serving stack)",
			Paper: "beyond the paper: fault-tolerant serving (ROADMAP)",
			Run:   runFaults,
		},
	)
	return exps
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (run `kbench -list`)", id)
}

// simPoint runs one simulator configuration Runs times and returns mean
// throughput plus the last run's detail.
func simPoint(o Options, p sim.Params) (float64, sim.Result, error) {
	var xs []float64
	var last sim.Result
	for i := 0; i < max(1, o.Runs); i++ {
		p.Seed = o.Seed + uint64(i)
		if o.DurationCycles > 0 {
			p.DurationCycles = o.DurationCycles
			p.WarmupCycles = o.DurationCycles * 2 / 5
		}
		r, err := sim.Run(p)
		if err != nil {
			return 0, sim.Result{}, err
		}
		xs = append(xs, r.Throughput())
		last = r
	}
	return stats.Summarize(xs).Mean, last, nil
}

// realPoint runs one real-executor configuration Runs times.
func realPoint(o Options, kind txds.Kind, distName string, sched core.SchedulerKind, workers, producers int) (float64, core.Result, error) {
	var xs []float64
	var last core.Result
	tasks := o.RealTasks
	if kind == txds.KindSortedList {
		// List operations are O(n); keep real-mode points tractable.
		tasks = min(tasks, 1500)
	}
	for i := 0; i < max(1, o.Runs); i++ {
		cfg, err := NewRealConfig(kind, distName, sched, workers, producers, o.Seed+uint64(i))
		if err != nil {
			return 0, core.Result{}, err
		}
		pool, err := core.NewPool(cfg)
		if err != nil {
			return 0, core.Result{}, err
		}
		r, err := pool.RunCount(tasks)
		if err != nil {
			return 0, core.Result{}, err
		}
		xs = append(xs, r.Throughput())
		last = r
	}
	return stats.Summarize(xs).Mean, last, nil
}

// schedulerSweep builds one Figure-3-style table: threads on the x axis,
// one throughput series per scheduler.
func schedulerSweep(o Options, kind txds.Kind, distName string, producers int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("%s, %s keys (%s mode, %d producers, mean of %d)",
			kind, distName, o.Mode, producers, max(1, o.Runs)),
		Cols: []string{"threads", "roundrobin", "fixed", "adaptive"},
	}
	for _, workers := range o.Threads {
		row := []float64{float64(workers)}
		for _, sched := range core.SchedulerKinds() {
			var thr float64
			var err error
			switch o.Mode {
			case ModeReal:
				thr, _, err = realPoint(o, kind, distName, sched, workers, producers)
			default:
				p := sim.DefaultParams()
				p.Workers = workers
				p.Producers = producers
				p.Scheduler = sched
				p.Structure = kind
				p.Dist = distName
				thr, _, err = simPoint(o, p)
			}
			if err != nil {
				return nil, err
			}
			row = append(row, thr)
		}
		t.Rows = append(t.Rows, row)
	}
	if o.Mode == ModeReal {
		t.Notes = append(t.Notes, "real mode: scaling is only meaningful with >= threads hardware CPUs")
	}
	return t, nil
}

// structureSweep renders one table per distribution for a structure.
func structureSweep(o Options, kind txds.Kind, producers int) ([]*Table, error) {
	var out []*Table
	for _, d := range dist.Names() {
		t, err := schedulerSweep(o, kind, d, producers)
		if err != nil {
			return nil, err
		}
		t.ID = fmt.Sprintf("tr-%s-%s", kind, d)
		out = append(out, t)
	}
	return out, nil
}

// runFig4 compares bare looping threads against the executor on trivial
// transactions, with the paper's six producers.
func runFig4(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "fig4-overhead",
		Title: fmt.Sprintf("Trivial transactions: no executor vs. executor (6 producers, %s mode)", o.Mode),
		Cols:  []string{"threads", "noexecutor", "executor", "ratio"},
	}
	for _, workers := range o.Threads {
		var bare, exec float64
		switch o.Mode {
		case ModeReal:
			bare1, _, err := realFig4Point(o, workers, true)
			if err != nil {
				return nil, err
			}
			exec1, _, err := realFig4Point(o, workers, false)
			if err != nil {
				return nil, err
			}
			bare, exec = bare1, exec1
		default:
			p := sim.DefaultParams()
			p.Structure = sim.Empty
			p.Workers = workers
			p.NoExecutor = true
			var err error
			bare, _, err = simPoint(o, p)
			if err != nil {
				return nil, err
			}
			p.NoExecutor = false
			p.Producers = 6
			p.Scheduler = core.SchedRoundRobin
			exec, _, err = simPoint(o, p)
			if err != nil {
				return nil, err
			}
		}
		ratio := 0.0
		if exec > 0 {
			ratio = bare / exec
		}
		t.Rows = append(t.Rows, []float64{float64(workers), bare, exec, ratio})
	}
	t.Notes = append(t.Notes, "paper: executor roughly doubles trivial-transaction cost at 2 workers; ratio shrinks at higher counts")
	return []*Table{t}, nil
}

// realFig4Point measures trivial-transaction throughput on the real
// executor (or bare self-producing workers).
func realFig4Point(o Options, workers int, bare bool) (float64, core.Result, error) {
	var xs []float64
	var last core.Result
	for i := 0; i < max(1, o.Runs); i++ {
		s := stm.New()
		counter := stm.NewBox(uint64(0))
		cfg := core.Config{
			STM: s,
			Workload: core.WorkloadFunc(func(th *stm.Thread, t core.Task) (any, error) {
				// A minimal but real transaction, like the paper's
				// "simple transactional executor" test.
				return nil, th.Atomic(func(tx *stm.Tx) error {
					v, err := counter.Write(tx)
					if err != nil {
						return err
					}
					*v++
					return nil
				})
			}),
			NewSource: func(p int) core.TaskSource {
				src := dist.NewUniform(o.Seed + uint64(i*31+p))
				return core.SourceFunc(func() core.Task {
					k, _ := dist.Split(src.Next())
					return core.Task{Key: uint64(k), Op: core.OpNoop, Arg: k}
				})
			},
			Workers:   workers,
			Producers: 6,
			Model:     core.ModelParallel,
		}
		if bare {
			cfg.Model = core.ModelNoExecutor
			cfg.Producers = 0
		} else {
			sched, err := core.NewScheduler(core.SchedRoundRobin, 0, dist.MaxKey, workers)
			if err != nil {
				return 0, core.Result{}, err
			}
			cfg.Scheduler = sched
		}
		pool, err := core.NewPool(cfg)
		if err != nil {
			return 0, core.Result{}, err
		}
		r, err := pool.RunCount(min(o.RealTasks, 20000))
		if err != nil {
			return 0, core.Result{}, err
		}
		xs = append(xs, r.Throughput())
		last = r
	}
	return stats.Summarize(xs).Mean, last, nil
}

// runContention reproduces the §4.4 contention-frequency observations at 8
// workers: conflicts per committed transaction for each structure,
// distribution and scheduler.
func runContention(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "tr-contention",
		Title: "Conflicts per transaction at 8 workers (sim)",
		Cols:  []string{"structure", "dist", "roundrobin", "fixed", "adaptive"},
	}
	structIdx := map[txds.Kind]float64{txds.KindHashTable: 0, txds.KindRBTree: 1, txds.KindSortedList: 2}
	for _, kind := range txds.Kinds() {
		for di, d := range dist.Names() {
			row := []float64{structIdx[kind], float64(di)}
			for _, sched := range core.SchedulerKinds() {
				p := sim.DefaultParams()
				p.Workers = 8
				p.Scheduler = sched
				p.Structure = kind
				p.Dist = d
				_, last, err := simPoint(o, p)
				if err != nil {
					return nil, err
				}
				row = append(row, last.ContentionRate())
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"structure: 0=hashtable 1=rbtree 2=sortedlist; dist: 0=uniform 1=gaussian 2=exponential",
		"paper: hashtable contention negligible (<1/100); rbtree and exponential list below 1/4; key partitioning reduces it further")
	return []*Table{t}, nil
}

// runBalance reproduces the load-balance analysis: per-scheduler imbalance
// at 8 workers for each distribution.
func runBalance(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "tr-balance",
		Title: "Load imbalance (max worker share / ideal) at 8 workers, hash table (sim)",
		Cols:  []string{"dist", "roundrobin", "fixed", "adaptive"},
	}
	for di, d := range dist.Names() {
		row := []float64{float64(di)}
		for _, sched := range core.SchedulerKinds() {
			p := sim.DefaultParams()
			p.Workers = 8
			p.Scheduler = sched
			p.Dist = d
			_, last, err := simPoint(o, p)
			if err != nil {
				return nil, err
			}
			row = append(row, last.LoadImbalance())
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"dist: 0=uniform 1=gaussian 2=exponential",
		"paper: round robin balances perfectly; fixed suffers the modulo low-end excess (uniform) and collapses under skew; adaptive rebalances via uneven ranges")
	return []*Table{t}, nil
}

// runThresholdAblation sweeps the adaptive sample threshold under the
// harshest distribution.
func runThresholdAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-threshold",
		Title: "Adaptive threshold sweep, hash table, exponential keys, 8 workers (sim)",
		Cols:  []string{"threshold", "throughput", "imbalance"},
	}
	for _, th := range []int{100, 1000, 10000, 50000} {
		p := sim.DefaultParams()
		p.Workers = 8
		p.Scheduler = core.SchedAdaptive
		p.Dist = "exponential"
		p.Threshold = th
		thr, last, err := simPoint(o, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{float64(th), thr, last.LoadImbalance()})
	}
	t.Notes = append(t.Notes, "paper's 10,000 gives 95% confidence of 99% CDF accuracy; smaller thresholds adapt sooner but on noisier estimates")
	return []*Table{t}, nil
}

// runStealAblation compares fixed partitioning with and without work
// stealing under skew.
func runStealAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-steal",
		Title: "Fixed scheduler, exponential keys: work stealing off vs. on (sim)",
		Cols:  []string{"threads", "nosteal", "steal", "adaptive"},
	}
	for _, workers := range o.Threads {
		p := sim.DefaultParams()
		p.Workers = workers
		p.Scheduler = core.SchedFixed
		p.Dist = "exponential"
		off, _, err := simPoint(o, p)
		if err != nil {
			return nil, err
		}
		p.WorkSteal = true
		on, _, err := simPoint(o, p)
		if err != nil {
			return nil, err
		}
		p.WorkSteal = false
		p.Scheduler = core.SchedAdaptive
		ad, _, err := simPoint(o, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{float64(workers), off, on, ad})
	}
	t.Notes = append(t.Notes, "stealing recovers throughput but sacrifices the locality that key partitioning bought; adaptive keeps both")
	return []*Table{t}, nil
}

// runReAdaptAblation compares one-shot adaptation against periodic
// re-adaptation when the key distribution drifts mid-run.
func runReAdaptAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-readapt",
		Title: "Drifting keys: one-shot adaptation vs. re-adaptation, 8 workers (sim)",
		Cols:  []string{"mode", "throughput", "imbalance"},
	}
	for i, re := range []bool{false, true} {
		p := sim.DefaultParams()
		p.Workers = 8
		p.Scheduler = core.SchedAdaptive
		p.Dist = "drift"
		p.ReAdapt = re
		thr, last, err := simPoint(o, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{float64(i), thr, last.LoadImbalance()})
	}
	t.Notes = append(t.Notes,
		"mode: 0=adapt once (paper) 1=re-adapt every window (extension)",
		"the drift source moves its key mass mid-run; one-shot partitions go stale")
	return []*Table{t}, nil
}

// QueueTransports lists the transports ablation-queue compares: the three
// unbounded Queue kinds (mscq first, the paper's ConcurrentLinkedQueue) and
// the executor's bounded MPSC Ring.
var QueueTransports = []string{string(queue.KindMSCQ), string(queue.KindMutex), string(queue.KindChan), "ring"}

// transportRingDepth is the ablation's ring capacity: the executor's default
// queue depth.
const transportRingDepth = 512

// RunTransport moves n values from producers goroutines through one fresh
// transport of the named kind to a single consumer — the executor's shape:
// many submitters, one owner per worker queue — and returns the elapsed
// time. A producer that finds the ring full and a consumer that finds any
// transport empty yield and retry.
func RunTransport(kind string, producers, n int) (time.Duration, error) {
	var put func(int) bool
	var get func() (int, bool)
	if kind == "ring" {
		r := queue.NewRing[int](transportRingDepth)
		put, get = r.TryPut, r.Get
	} else {
		q, err := queue.New[int](queue.Kind(kind))
		if err != nil {
			return 0, err
		}
		put = func(v int) bool { q.Put(v); return true }
		get = q.Get
	}
	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		share := n / producers
		if p < n%producers {
			share++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < share; i++ {
				for !put(i) {
					runtime.Gosched()
				}
			}
		}()
	}
	for got := 0; got < n; {
		if _, ok := get(); ok {
			got++
			continue
		}
		runtime.Gosched()
	}
	elapsed := time.Since(start)
	wg.Wait()
	return elapsed, nil
}

// runQueueAblation compares the task-queue transports alone, outside the
// executor: 2 producers → 1 consumer per kind, in values per second.
func runQueueAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-queue",
		Title: "Queue transports, 2 producers → 1 consumer",
		Cols:  []string{"kind", "throughput"},
	}
	n := 10 * max(1, o.RealTasks)
	for i, k := range QueueTransports {
		var xs []float64
		for r := 0; r < max(1, o.Runs); r++ {
			d, err := RunTransport(k, 2, n)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n)/d.Seconds())
		}
		t.Rows = append(t.Rows, []float64{float64(i), stats.Summarize(xs).Mean})
	}
	t.Notes = append(t.Notes, "kind: 0=mscq (paper's ConcurrentLinkedQueue) 1=mutex ring 2=channel 3=bounded MPSC ring (the executor's worker queue, 512 slots)")
	return []*Table{t}, nil
}

// runCMAblation compares contention managers on the real STM under forced
// contention (a small hash table).
func runCMAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-cm",
		Title: "Contention managers, real STM, 31-bucket hash table, 4 workers",
		Cols:  []string{"manager", "throughput", "aborts_per_commit"},
	}
	for i, m := range stm.Managers() {
		var thr, aborts []float64
		for r := 0; r < max(1, o.Runs); r++ {
			s := stm.New(stm.WithContentionManager(m.New))
			set := txds.NewHashTable(31)
			sched, err := core.NewScheduler(core.SchedRoundRobin, 0, 30, 4)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{
				STM:      s,
				Workload: NewDictWorkload(set),
				NewSource: func(p int) core.TaskSource {
					src := dist.NewUniform(o.Seed + uint64(r*17+p))
					return NewDictSource(src, func(k uint32) uint64 { return uint64(k % 31) })
				},
				Workers:   4,
				Producers: 2,
				Model:     core.ModelParallel,
				Scheduler: sched,
			}
			pool, err := core.NewPool(cfg)
			if err != nil {
				return nil, err
			}
			res, err := pool.RunCount(min(o.RealTasks, 10000))
			if err != nil {
				return nil, err
			}
			thr = append(thr, res.Throughput())
			if res.STM.Commits > 0 {
				aborts = append(aborts, float64(res.STM.Aborts())/float64(res.STM.Commits))
			} else {
				aborts = append(aborts, 0)
			}
		}
		t.Rows = append(t.Rows, []float64{float64(i), stats.Summarize(thr).Mean, stats.Summarize(aborts).Mean})
	}
	names := ""
	for i, m := range stm.Managers() {
		if i > 0 {
			names += " "
		}
		names += fmt.Sprintf("%d=%s", i, m.Name)
	}
	t.Notes = append(t.Notes, "manager: "+names)
	return []*Table{t}, nil
}

// runSortBatchAblation measures the §2 buffer-reordering capability the
// paper describes but does not use: workers drain batches and execute them
// in key order.
func runSortBatchAblation(o Options) ([]*Table, error) {
	t := &Table{
		ID:    "ablation-sortbatch",
		Title: "Sorted worker buffers, real executor, hash table, gaussian keys",
		Cols:  []string{"batch", "throughput"},
	}
	for _, batch := range []int{0, 16, 64, 256} {
		var xs []float64
		for r := 0; r < max(1, o.Runs); r++ {
			cfg, err := NewRealConfig(txds.KindHashTable, "gaussian", core.SchedAdaptive, 2, 2, o.Seed+uint64(r))
			if err != nil {
				return nil, err
			}
			cfg.SortBatch = batch
			pool, err := core.NewPool(cfg)
			if err != nil {
				return nil, err
			}
			res, err := pool.RunCount(min(o.RealTasks, 20000))
			if err != nil {
				return nil, err
			}
			xs = append(xs, res.Throughput())
		}
		t.Rows = append(t.Rows, []float64{float64(batch), stats.Summarize(xs).Mean})
	}
	t.Notes = append(t.Notes,
		"batch 0 = FIFO (the paper's configuration); larger batches trade dispatch latency for within-worker key locality",
		"wall-clock benefit requires real parallelism and cache pressure; the key-locality effect itself is asserted by core's unit tests")
	return []*Table{t}, nil
}

// runSharding is the executor-v2 acceptance experiment: the Gaussian
// adaptive hash-table workload at 8 workers, shared single-STM mode against
// ShardPerWorker, reporting throughput and the wait/service latency
// percentiles ExecStats now carries. Sharding removes the cross-worker STM
// entirely (each worker commits into a private instance), so its throughput
// should meet or beat shared mode once the adaptive partition has localized
// the key ranges.
func runSharding(o Options) ([]*Table, error) {
	const workers, clients = 8, 16
	t := &Table{
		ID: "sharding",
		Title: fmt.Sprintf("Shared vs. per-worker STM, hash table, gaussian, adaptive, %d workers, %d clients (real)",
			workers, clients),
		Cols: []string{"mode", "throughput", "wait_p50_us", "wait_p95_us", "wait_p99_us", "svc_p50_us", "svc_p95_us", "svc_p99_us"},
	}
	for mi, mode := range []core.ShardMode{core.ShardShared, core.ShardPerWorker} {
		var thr []float64
		var last core.ExecStats
		// One unrecorded warmup run per mode: heap growth and scheduler
		// ramp-up otherwise bill the first-measured mode.
		if _, _, err := ShardingPoint(o, "gaussian", mode, workers, clients, o.Seed); err != nil {
			return nil, err
		}
		for r := 0; r < max(1, o.Runs); r++ {
			st, elapsed, err := ShardingPoint(o, "gaussian", mode, workers, clients, o.Seed+uint64(r))
			if err != nil {
				return nil, err
			}
			if elapsed > 0 {
				thr = append(thr, float64(st.Completed)/elapsed.Seconds())
			}
			last = st
		}
		us := func(d time.Duration) float64 { return float64(d.Microseconds()) }
		t.Rows = append(t.Rows, []float64{float64(mi), stats.Summarize(thr).Mean,
			us(last.Wait.P50), us(last.Wait.P95), us(last.Wait.P99),
			us(last.Service.P50), us(last.Service.P95), us(last.Service.P99)})
	}
	t.Notes = append(t.Notes,
		"mode: 0=shared (one STM for all workers) 1=perworker (private STM + dictionary per worker)",
		"latency columns are the final run's ExecStats percentiles in microseconds",
		"sharded mode removes cross-worker STM conflicts by construction; the adaptive PD-partition already sends each key range to one worker")
	return []*Table{t}, nil
}

// ShardingPoint runs one shared-vs-sharded configuration under open
// goroutine-per-client submission and returns the final ExecStats and the
// load phase's wall-clock. Exported for the harness tests.
func ShardingPoint(o Options, distName string, mode core.ShardMode, workers, clients int, seed uint64) (core.ExecStats, time.Duration, error) {
	var (
		ex    *core.Executor
		keyFn func(uint32) uint64
		err   error
	)
	// A reduced sample threshold lets adaptation land within CI-sized
	// traffic; production callers keep the paper's 10,000 default.
	if mode == core.ShardPerWorker {
		ex, keyFn, err = NewShardedExecutor(txds.KindHashTable, core.SchedAdaptive, workers, core.WithThreshold(1000))
	} else {
		ex, keyFn, err = NewOpenExecutor(txds.KindHashTable, core.SchedAdaptive, workers, core.WithThreshold(1000))
	}
	if err != nil {
		return core.ExecStats{}, 0, err
	}
	ctx := context.Background()
	if err := ex.Start(ctx); err != nil {
		return core.ExecStats{}, 0, err
	}
	per := max(1, o.RealTasks/clients)
	errCh := make(chan error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src, err := dist.ByName(distName, seed+uint64(c)*0x9e37)
			if err != nil {
				errCh <- err
				return
			}
			for i := 0; i < per; i++ {
				k, insert := dist.Split(src.Next())
				op := core.OpDelete
				if insert {
					op = core.OpInsert
				}
				if _, err := ex.Submit(ctx, core.Task{Key: keyFn(k), Op: op, Arg: k}); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ex.Drain(); err != nil {
		return core.ExecStats{}, 0, err
	}
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return core.ExecStats{}, 0, err
	default:
	}
	return ex.Stats(), elapsed, nil
}

// RunAll executes every experiment and returns the tables in registry
// order; it is what `kbench -experiment all` uses.
func RunAll(o Options) ([]*Table, error) {
	var out []*Table
	for _, e := range Experiments() {
		start := time.Now()
		tables, err := e.Run(o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			t.Notes = append(t.Notes, fmt.Sprintf("generated in %v", time.Since(start).Round(time.Millisecond)))
		}
		out = append(out, tables...)
	}
	return out, nil
}
