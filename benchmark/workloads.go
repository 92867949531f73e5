package main

import (
	"fmt"

	"kstm"
	"kstm/internal/dist"
	"kstm/internal/harness"
	"kstm/internal/rng"
)

// loadKind is how a workload's traffic reaches the executor.
type loadKind int

const (
	// loadWindow: in-process closed loop; each submitter keeps a sliding
	// window of outstanding SubmitAsync futures.
	loadWindow loadKind = iota
	// loadSync: loopback TCP closed loop; one client.Do at a time per
	// connection.
	loadSync
	// loadPaced: loopback TCP open loop; Poisson arrivals at a fixed rate,
	// latency timed from the intended send time.
	loadPaced
)

// traffic is the operation mix and key source of a workload.
type traffic int

const (
	trafficDict    traffic = iota // 50% insert / 50% delete, keys from a dist source
	trafficTree                   // 80% lookup / 10% insert / 10% delete, uniform keys
	trafficMigrate                // 75% insert / 25% lookup of an own settled insert, drifting Gaussian
	trafficSplit                  // 90% add(+1) / 10% lookup, Zipf(1.3) ranks over the counter bank
)

const (
	// window is the per-submitter count of outstanding futures in the
	// in-process closed loops.
	window = 64
	// adaptThreshold is the paper's 10 000-sample confidence threshold; the
	// warm-up is sized so the adaptive scheduler passes it.
	adaptThreshold = 10000
	// wireQueueDepth is kstmd's default per-worker queue bound.
	wireQueueDepth = 4096
	// pacedRatePerConn is the open loop's fixed arrival rate on each of its
	// N connections (75 000 req/s in all on the 2-CPU build host), frozen
	// here; see the README for how it was chosen.
	pacedRatePerConn = 37500.0
	// treePrefill is the red-black tree's size at the start of the run.
	treePrefill = 32768
	// migrateSigma is the drifting Gaussian's deviation (dist's drift source
	// uses the same).
	migrateSigma = 3000
	// keySpace is the repo's 16-bit dictionary space.
	keySpace = kstm.MaxKey + 1
)

// workload is one named traffic mix over one executor configuration.
type workload struct {
	name, why string
	load      loadKind
	traffic   traffic
	keyDist   string // trafficDict's key distribution
	// newExecutor builds the (unstarted) executor for n workers and returns
	// the dictionary keys it was prefilled with.
	newExecutor func(n int, seed uint64) (*kstm.Executor, []uint32, error)
	// newStructure builds a fresh copy of the workload's data structure for
	// the txds probes.
	newStructure func() any
	// setups is how many times a run builds the stack to report the median
	// set-up time: many where a build takes milliseconds, few where the
	// prefill makes it take half a second.
	setups int
}

func (w *workload) wire() bool { return w.load != loadWindow }

// keys is the size of the workload's key space.
func (w *workload) keys() int {
	if w.traffic == trafficSplit {
		return harness.ContentionCounters
	}
	return keySpace
}

// workloads lists the benchmark's workloads; BENCHMARK.json repeats the
// names and reasons.
var workloads = []*workload{
	{
		name:    "inproc-pipe",
		why:     "in-process, hash table, exponential keys, 50/50 insert/delete, window 64: dispatch (route, enqueue, wake, settle) is most of the cost; the wire path must show no move",
		load:    loadWindow,
		traffic: trafficDict,
		keyDist: "exponential",
		newExecutor: func(n int, _ uint64) (*kstm.Executor, []uint32, error) {
			return sharedHashExecutor(n)
		},
		newStructure: func() any { return kstm.NewHashTable(0) },
		setups:       41,
	},
	{
		name:         "inproc-tree",
		why:          "in-process, red-black tree of 32768 keys, uniform keys, 80/10/10 lookup/insert/delete, window 64: STM and txds do most of the work, with real conflicts and long read sets",
		load:         loadWindow,
		traffic:      trafficTree,
		newExecutor:  treeExecutor,
		newStructure: func() any { return kstm.NewRBTree() },
		setups:       5,
	},
	{
		name:    "inproc-migrate",
		why:     "in-process, per-worker shards with migration and re-adaptation, Gaussian keys whose mean sweeps the key space: the only workload on the gated dispatch, fence and range hand-off",
		load:    loadWindow,
		traffic: trafficMigrate,
		newExecutor: func(n int, _ uint64) (*kstm.Executor, []uint32, error) {
			ex, err := kstm.NewExecutor(
				kstm.WithSharding(kstm.ShardPerWorker),
				kstm.WithWorkloadFactory(harness.NewKeyRangeDictFactory("hashtable")),
				kstm.WithMigration(kstm.MigrateOnRepartition),
				kstm.WithWorkers(n),
				kstm.WithSchedulerKind(kstm.SchedAdaptive, 0, kstm.MaxKey,
					kstm.WithThreshold(adaptThreshold), kstm.WithReAdaptation()),
			)
			return ex, nil, err
		},
		newStructure: func() any { return kstm.NewHashTable(0) },
		setups:       41,
	},
	{
		name:    "inproc-split",
		why:     "in-process, 1024 counters under split-phase execution, Zipf(1.3) ranks, 90/10 add/lookup: the only workload on the split dispatch, per-worker accumulators and merge epochs",
		load:    loadWindow,
		traffic: trafficSplit,
		newExecutor: func(n int, _ uint64) (*kstm.Executor, []uint32, error) {
			ex, err := kstm.NewExecutor(
				kstm.WithWorkload(harness.NewCounterWorkload(kstm.NewCounters(harness.ContentionCounters))),
				kstm.WithWorkers(n),
				kstm.WithSchedulerKind(kstm.SchedFixed, 0, harness.ContentionCounters-1),
				// Merge on wake instead of after the default 100 µs coalescing
				// delay: the Go runtime rounds a sub-millisecond timer up to 1 ms
				// whenever every P is idle, which is exactly when this closed
				// loop waits for a merge, and the workload then flips between two
				// regimes within a run (README, "Findings").
				kstm.WithSplitPhase(kstm.SplitCoalesce(0)),
			)
			return ex, nil, err
		},
		newStructure: func() any { return kstm.NewCounters(harness.ContentionCounters) },
		setups:       41,
	},
	{
		name:    "wire-sync",
		why:     "loopback TCP through client, wire and server, Gaussian keys, one client.Do at a time per connection: the window-1 round trip, where flushes, syscalls and wake-ups dominate",
		load:    loadSync,
		traffic: trafficDict,
		keyDist: "gaussian",
		newExecutor: func(n int, _ uint64) (*kstm.Executor, []uint32, error) {
			return sharedHashExecutor(n, kstmdOptions()...)
		},
		newStructure: func() any { return kstm.NewHashTable(0) },
		setups:       41,
	},
	{
		name:    "wire-paced",
		why:     "the same stack in an open loop: Poisson arrivals at a fixed 37500 req/s per connection, latency from the intended send time: independent users, honest tail, flush coalescing used the other way",
		load:    loadPaced,
		traffic: trafficDict,
		keyDist: "gaussian",
		newExecutor: func(n int, _ uint64) (*kstm.Executor, []uint32, error) {
			return sharedHashExecutor(n, kstmdOptions()...)
		},
		newStructure: func() any { return kstm.NewHashTable(0) },
		setups:       41,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// kstmdOptions are the executor options cmd/kstmd serves with: shed load
// instead of stalling connection handlers, at its default queue depth.
func kstmdOptions() []kstm.Option {
	return []kstm.Option{
		kstm.WithBackpressure(kstm.BackpressureReject),
		kstm.WithQueueDepth(wireQueueDepth),
	}
}

// sharedHashExecutor is kstmd's default configuration: one STM, the paper's
// hash table, the adaptive scheduler over the dictionary key space (the
// transaction key is the dictionary key, as it is for wire clients).
func sharedHashExecutor(n int, extra ...kstm.Option) (*kstm.Executor, []uint32, error) {
	opts := append([]kstm.Option{
		kstm.WithWorkload(harness.NewDictWorkload(kstm.NewHashTable(0))),
		kstm.WithWorkers(n),
		kstm.WithSchedulerKind(kstm.SchedAdaptive, 0, kstm.MaxKey, kstm.WithThreshold(adaptThreshold)),
	}, extra...)
	ex, err := kstm.NewExecutor(opts...)
	return ex, nil, err
}

// treeExecutor builds a shared red-black tree holding a seeded random half
// of the key space.
func treeExecutor(n int, seed uint64) (*kstm.Executor, []uint32, error) {
	s := kstm.New()
	tree := kstm.NewRBTree()
	keys := make([]uint32, keySpace)
	for i := range keys {
		keys[i] = uint32(i)
	}
	r := rng.New(seed)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	keys = keys[:treePrefill]
	th := s.NewThread()
	for _, k := range keys {
		if _, err := tree.Insert(th, k); err != nil {
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	ex, err := kstm.NewExecutor(
		kstm.WithSTM(s),
		kstm.WithWorkload(harness.NewDictWorkload(tree)),
		kstm.WithWorkers(n),
		kstm.WithSchedulerKind(kstm.SchedAdaptive, 0, kstm.MaxKey, kstm.WithThreshold(adaptThreshold)),
	)
	return ex, keys, err
}

// source is one submitter's seeded traffic and its half of the correctness
// oracle. next and observe touch disjoint fields for trafficDict, so the
// open loop may call them from its sender and its reaper.
type source struct {
	kind traffic
	r    *rng.Xoshiro256
	keys dist.Source // trafficDict
	zipf *dist.Zipf  // trafficSplit

	// net counts, per dictionary key, inserts acknowledged "was absent"
	// minus deletes acknowledged "was present"; summed over submitters (plus
	// the prefill) it must equal the key's final membership, whatever the
	// order the operations ran in.
	net []int32
	// adds counts acknowledged +1 adds per counter.
	adds []int64
	// settled is a ring of keys whose insert this submitter has seen
	// settle; trafficMigrate never deletes, so a lookup of one must hit.
	settled  [1024]uint32
	nSettled uint64
	// wrong counts results that contradict this submitter's own history.
	wrong uint64
}

// newSource seeds submitter sub's traffic the way the repo's harness does.
func newSource(w *workload, seed uint64, sub int) (*source, error) {
	seed += uint64(sub) * 0x9e37
	s := &source{kind: w.traffic, r: rng.New(seed ^ 0x5bd1e995)}
	switch w.traffic {
	case trafficDict:
		src, err := dist.ByName(w.keyDist, seed)
		if err != nil {
			return nil, err
		}
		s.keys = src
		s.net = make([]int32, keySpace)
	case trafficSplit:
		s.zipf = dist.NewZipf(seed, 1.3, harness.ContentionCounters)
		s.adds = make([]int64, harness.ContentionCounters)
	default:
		s.net = make([]int32, keySpace)
	}
	return s, nil
}

// next generates the next task. frac is the elapsed share of the planned
// load (it moves trafficMigrate's mean); expect is what observe needs to
// judge the result (a counter lookup's floor).
func (s *source) next(frac float64) (t kstm.Task, expect int64) {
	switch s.kind {
	case trafficDict:
		k, insert := dist.Split(s.keys.Next())
		op := kstm.OpDelete
		if insert {
			op = kstm.OpInsert
		}
		return kstm.Task{Key: uint64(k), Op: op, Arg: k}, 0
	case trafficTree:
		k := uint32(s.r.Uint64n(keySpace))
		op := kstm.OpLookup
		switch s.r.Uint64n(10) {
		case 8:
			op = kstm.OpInsert
		case 9:
			op = kstm.OpDelete
		}
		return kstm.Task{Key: uint64(k), Op: op, Arg: k}, 0
	case trafficMigrate:
		if s.nSettled > 0 && s.r.Uint64n(4) == 0 {
			k := s.settled[s.r.Uint64n(min(s.nSettled, uint64(len(s.settled))))]
			return kstm.Task{Key: uint64(k), Op: kstm.OpLookup, Arg: k}, 0
		}
		mean := (0.125 + 0.75*frac) * keySpace
		k := uint32(min(max(mean+migrateSigma*s.r.NormFloat64(), 0), kstm.MaxKey))
		return kstm.Task{Key: uint64(k), Op: kstm.OpInsert, Arg: k}, 0
	default: // trafficSplit
		k := s.zipf.Rank()
		if s.r.Uint64n(10) == 0 {
			return kstm.Task{Key: uint64(k), Op: kstm.OpLookup}, s.adds[k]
		}
		return kstm.Task{Key: uint64(k), Op: kstm.OpAdd, Arg: 1}, 0
	}
}

// observe folds one acknowledged result into the oracle.
func (s *source) observe(t kstm.Task, v any, expect int64) {
	if s.kind == trafficSplit {
		switch t.Op {
		case kstm.OpAdd:
			s.adds[t.Key]++
		case kstm.OpLookup:
			// Every add counted in expect had settled before this lookup
			// was submitted, so the sum may not be below it.
			if sum, ok := v.(int64); !ok || sum < expect {
				s.wrong++
			}
		}
		return
	}
	hit, ok := v.(bool)
	if !ok {
		s.wrong++
		return
	}
	switch t.Op {
	case kstm.OpInsert:
		if hit {
			s.net[t.Arg]++
		}
		if s.kind == trafficMigrate {
			s.settled[s.nSettled%uint64(len(s.settled))] = t.Arg
			s.nSettled++
		}
	case kstm.OpDelete:
		if hit {
			s.net[t.Arg]--
		}
	case kstm.OpLookup:
		if s.kind == trafficMigrate && !hit {
			s.wrong++
		}
	}
}
