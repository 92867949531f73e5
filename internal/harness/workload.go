package harness

import (
	"fmt"
	"math"

	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// DictSource adapts a key-distribution source into the executor's task
// stream: each 17-bit draw splits into a 16-bit dictionary key and an
// insert/delete bit (§4.4), and the transaction key is derived with keyFn
// (the hash output for hash tables, the identity otherwise — §4.2).
type DictSource struct {
	src   dist.Source
	keyFn func(uint32) uint64
}

// NewDictSource builds a task source; a nil keyFn uses the dictionary key
// itself as the transaction key.
func NewDictSource(src dist.Source, keyFn func(uint32) uint64) *DictSource {
	if keyFn == nil {
		keyFn = func(k uint32) uint64 { return uint64(k) }
	}
	return &DictSource{src: src, keyFn: keyFn}
}

// Next implements core.TaskSource.
func (d *DictSource) Next() core.Task {
	key, insert := dist.Split(d.src.Next())
	op := core.OpDelete
	if insert {
		op = core.OpInsert
	}
	return core.Task{Key: d.keyFn(key), Op: op, Arg: key}
}

// DictWorkload executes dictionary tasks against an IntSet — the worker-side
// binding for real-mode experiments. Every operation returns its logical
// result as the task value: OpInsert reports "was absent", OpDelete "was
// present", and OpLookup the hit — so a submitter reads a dictionary answer
// straight off its TaskResult with no side channel.
type DictWorkload struct {
	set txds.IntSet
}

// NewDictWorkload wraps an IntSet as a core.Workload.
func NewDictWorkload(set txds.IntSet) *DictWorkload {
	return &DictWorkload{set: set}
}

// Set returns the wrapped dictionary (e.g. to read a shard back post-run).
func (d *DictWorkload) Set() txds.IntSet { return d.set }

// Execute implements core.Workload.
func (d *DictWorkload) Execute(th *stm.Thread, t core.Task) (any, error) {
	switch t.Op {
	case core.OpInsert:
		return d.set.Insert(th, t.Arg)
	case core.OpDelete:
		return d.set.Delete(th, t.Arg)
	case core.OpLookup:
		return d.set.Contains(th, t.Arg)
	case core.OpNoop:
		// Trivial transaction (Figure 4): nothing to do.
		return nil, nil
	default:
		return nil, fmt.Errorf("harness: unknown op %v", t.Op)
	}
}

// DictFactory builds shard-local dictionaries for sharded executors: every
// shard gets a private structure of the same kind, so the executor's
// per-worker STM instances never share transactional objects. A sharded
// executor dispatches on the dictionary key itself (Task.Key == Arg), so the
// partition, every shard and every hand-off range agree on which keys a range
// holds whatever a shard's table size. Each shard hash table is right-sized
// to its share of the keys (shardedBuckets, from the worker count the
// executor passes to SetShards), keeping the sharded configuration's total
// footprint equal to the shared one instead of multiplying it by the worker
// count.
type DictFactory struct {
	kind    txds.Kind
	buckets int // per-shard hash-table size; 0 = the structure default
	shards  []txds.IntSet
}

// NewKeyRangeDictFactory returns a migratable factory producing fresh
// kind-structures per shard, whose stores move keys by dictionary-key range.
// Shards keep the structure defaults until SetShards sizes them (the
// executor calls it under ShardPerWorker). Construction cannot fail for the
// kinds txds.New accepts; the kind is validated by the first NewShard call,
// which panics on an unknown kind exactly like an invalid executor
// configuration would.
func NewKeyRangeDictFactory(kind txds.Kind) *DictFactory {
	return &DictFactory{kind: kind}
}

// SetShards implements core.ShardSizer: hash-table shards are sized for n
// shards (n <= 1 keeps the structure default).
func (f *DictFactory) SetShards(n int) {
	f.buckets = 0
	if f.kind == txds.KindHashTable && n > 1 {
		f.buckets = shardedBuckets(n)
	}
}

// shardedBuckets returns a prime near DefaultBuckets/workers: each shard
// holds ~1/workers of the keys, so a proportional table preserves the
// paper's load factor per shard.
func shardedBuckets(workers int) int {
	n := txds.DefaultBuckets / workers
	if n < 31 {
		n = 31
	}
	for !isPrime(n) {
		n++
	}
	return n
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NewShard implements core.WorkloadFactory.
func (f *DictFactory) NewShard(worker int) core.Workload {
	var set txds.IntSet
	if f.kind == txds.KindHashTable && f.buckets > 0 {
		set = txds.NewHashTable(f.buckets)
	} else {
		var err error
		set, err = txds.New(f.kind)
		if err != nil {
			panic(fmt.Sprintf("harness: DictFactory kind %q: %v", f.kind, err))
		}
	}
	for len(f.shards) <= worker {
		f.shards = append(f.shards, nil)
	}
	f.shards[worker] = set
	return NewDictWorkload(set)
}

// Shard returns the dictionary built for a worker (nil before NewShard).
func (f *DictFactory) Shard(worker int) txds.IntSet {
	if worker < 0 || worker >= len(f.shards) {
		return nil
	}
	return f.shards[worker]
}

// Store implements core.StoreFactory: the migratable face of the worker's
// shard, or nil when its structure cannot extract key ranges.
func (f *DictFactory) Store(worker int) core.ShardStore {
	switch set := f.Shard(worker).(type) {
	case *txds.HashTable:
		return &dictStore{ht: set}
	case txds.RangeStore:
		return &dictStore{rs: set}
	}
	return nil
}

// dictStore adapts a shard dictionary to core.ShardStore: hand-off ranges
// are dictionary-key ranges. A hash table extracts an epoch's ranges in one
// pass over their bucket images, so aliased keys (k and k+buckets share a
// bucket) stay put; the ordered structures, whose scheduling key is the
// dictionary key, extract one range at a time. One hand-off at a time calls
// a store (epochs never overlap), so krs, and the ordered structures' out,
// are reused.
type dictStore struct {
	ht  *txds.HashTable // nil for the ordered structures
	rs  txds.RangeStore // nil for the hash table
	krs []txds.KeyRange
	out [][]uint32
}

// ExtractRanges implements core.ShardStore. The ranges ascend, so those
// above the 32-bit dictionary space are a suffix; they extract nothing and
// their output slots stay empty.
func (s *dictStore) ExtractRanges(th *stm.Thread, ranges []core.Range) ([][]uint32, error) {
	s.krs = s.krs[:0]
	for _, r := range ranges {
		if r.Lo > math.MaxUint32 {
			break
		}
		s.krs = append(s.krs, txds.KeyRange{Lo: uint32(r.Lo), Hi: uint32(min(r.Hi, math.MaxUint32))})
	}
	var err error
	if s.ht != nil {
		s.out, err = s.ht.ExtractKeyRanges(th, s.krs)
	} else {
		s.out = s.out[:0]
		for _, kr := range s.krs {
			var keys []uint32
			keys, err = s.rs.ExtractRange(th, kr.Lo, kr.Hi)
			s.out = append(s.out, keys)
			if err != nil {
				break
			}
		}
	}
	for len(s.out) < len(ranges) {
		s.out = append(s.out, nil)
	}
	return s.out, err
}

// InstallKeys implements core.ShardStore.
func (s *dictStore) InstallKeys(th *stm.Thread, keys []uint32) error {
	if s.ht != nil {
		return s.ht.InstallKeys(th, keys)
	}
	return s.rs.InstallKeys(th, keys)
}

// NewRealConfig assembles a real-mode executor config for a benchmark
// structure: fresh STM, the structure, its transaction-key function, per-
// producer sources split from seed, and the requested scheduler.
func NewRealConfig(kind txds.Kind, distName string, sched core.SchedulerKind, workers, producers int, seed uint64) (core.Config, error) {
	set, err := txds.New(kind)
	if err != nil {
		return core.Config{}, err
	}
	var keyFn func(uint32) uint64
	maxKey := uint64(dist.MaxKey)
	if ht, ok := set.(*txds.HashTable); ok {
		keyFn = func(k uint32) uint64 { return uint64(ht.Hash(k)) }
		maxKey = uint64(ht.Buckets() - 1)
	}
	scheduler, err := core.NewScheduler(sched, 0, maxKey, workers)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		STM:      stm.New(),
		Workload: NewDictWorkload(set),
		NewSource: func(p int) core.TaskSource {
			src, err := dist.ByName(distName, seed+uint64(p)*0x9e37)
			if err != nil {
				// Validated below before use; return a constant
				// stream to keep the signature simple.
				return core.SourceFunc(func() core.Task { return core.Task{} })
			}
			return NewDictSource(src, keyFn)
		},
		Workers:   workers,
		Producers: producers,
		Model:     core.ModelParallel,
		Scheduler: scheduler,
	}, validateDist(distName)
}

func validateDist(name string) error {
	_, err := dist.ByName(name, 0)
	return err
}

// NewOpenExecutor assembles an open-submission executor for a benchmark
// structure: fresh STM, the structure as workload, and the requested
// dispatch policy over the structure's transaction-key space (adaptive
// options apply only to SchedAdaptive). Callers own the lifecycle
// (Start/Drain/Stop) and the traffic; keyFn converts a dictionary key into
// the transaction key to submit with.
func NewOpenExecutor(kind txds.Kind, sched core.SchedulerKind, workers int, opts ...core.AdaptiveOption) (ex *core.Executor, keyFn func(uint32) uint64, err error) {
	set, err := txds.New(kind)
	if err != nil {
		return nil, nil, err
	}
	keyFn = func(k uint32) uint64 { return uint64(k) }
	maxKey := uint64(dist.MaxKey)
	if ht, ok := set.(*txds.HashTable); ok {
		keyFn = func(k uint32) uint64 { return uint64(ht.Hash(k)) }
		maxKey = uint64(ht.Buckets() - 1)
	}
	ex, err = core.NewExecutor(
		core.WithSTM(stm.New()),
		core.WithWorkload(NewDictWorkload(set)),
		core.WithWorkers(workers),
		core.WithSchedulerKind(sched, 0, maxKey, opts...),
	)
	if err != nil {
		return nil, nil, err
	}
	return ex, keyFn, nil
}

// NewShardedExecutor assembles an open-submission executor in ShardPerWorker
// mode: every worker owns a private STM instance and a private dictionary of
// the given kind built through NewKeyRangeDictFactory. Dispatch is on the
// dictionary key itself over [0, dist.MaxKey] for every kind, so keyFn is the
// identity; under SchedAdaptive every re-partition migrates the moved ranges'
// keys to their new owner.
func NewShardedExecutor(kind txds.Kind, sched core.SchedulerKind, workers int, opts ...core.AdaptiveOption) (ex *core.Executor, keyFn func(uint32) uint64, err error) {
	if _, err := txds.New(kind); err != nil {
		return nil, nil, err
	}
	ex, err = core.NewExecutor(
		core.WithSharding(core.ShardPerWorker),
		core.WithWorkloadFactory(NewKeyRangeDictFactory(kind)),
		core.WithWorkers(workers),
		core.WithSchedulerKind(sched, 0, dist.MaxKey, opts...),
	)
	if err != nil {
		return nil, nil, err
	}
	return ex, func(k uint32) uint64 { return uint64(k) }, nil
}
