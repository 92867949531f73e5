package harness

import (
	"fmt"

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
// per-worker STM instances never share transactional objects. Dispatch
// stays independent of the shard layout: the transaction-key function is
// computed against a full-size prototype, while each shard hash table is
// right-sized to its share of the keys (shardedBuckets, from the worker
// count the executor passes to SetShards), keeping the sharded
// configuration's total footprint equal to the shared one instead of
// multiplying it by the worker count.
//
// A migratable factory (NewKeyRangeDictFactory) moves keys by dictionary-key
// range, so every shard agrees with the dispatch partition — and with each
// other — on which keys a range holds whatever its table size; its hash
// tables are right-sized too. The other structures schedule by the
// dictionary key itself and need no such alignment.
type DictFactory struct {
	kind    txds.Kind
	buckets int // per-shard hash-table size; 0 = the structure default
	// keyRange: Store() migrates by DICTIONARY-key range instead of the
	// structure's own scheduling space — for deployments (kstmd) whose
	// dispatch keys are the dictionary keys themselves, not hash outputs.
	keyRange bool
	shards   []txds.IntSet
}

// NewDictFactory returns a factory producing fresh kind-structures per
// shard. Shards keep the structure defaults until SetShards sizes them (the
// executor calls it under ShardPerWorker). Construction cannot fail for the
// kinds txds.New accepts; the kind is validated by the first NewShard call,
// which panics on an unknown kind exactly like an invalid executor
// configuration would.
func NewDictFactory(kind txds.Kind) *DictFactory {
	return &DictFactory{kind: kind}
}

// NewKeyRangeDictFactory returns a migratable factory whose stores
// interpret hand-off ranges as DICTIONARY-key ranges for every structure —
// the right pairing when dispatch keys are the dictionary keys themselves,
// as with kstmd's wire clients (scheduler over [0, MaxKey], Task.Key ==
// Arg). With the structure-space factory there, a hash table would migrate
// bucket-index ranges while the partition moved raw-key ranges: aliased
// keys (k and k+buckets share a bucket) would be relocated out from under
// live unfenced traffic.
func NewKeyRangeDictFactory(kind txds.Kind) *DictFactory {
	return &DictFactory{kind: kind, keyRange: true}
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
// shard. It returns nil — disabling migration at executor validation — when
// the shard structure does not implement txds.RangeStore, or when
// structure-space hash-table shards were right-sized (their bucket spaces
// then disagree with the dispatch partition's; use NewKeyRangeDictFactory).
func (f *DictFactory) Store(worker int) core.ShardStore {
	if f.kind == txds.KindHashTable && f.buckets > 0 && !f.keyRange {
		return nil
	}
	set := f.Shard(worker)
	rs, ok := set.(txds.RangeStore)
	if !ok {
		return nil
	}
	if f.keyRange {
		if ht, isHash := set.(*txds.HashTable); isHash {
			return dictStore{rs: keyRangeHashStore{t: ht}}
		}
		// The ordered structures' scheduling space IS the dictionary key.
	}
	return dictStore{rs: rs}
}

// keyRangeHashStore views a hash table through dictionary-key ranges
// (ExtractKeyRange) instead of its native bucket ranges. Its ExtractRanges is
// the batch face dictStore looks for: ExtractKeyRanges visits the union of an
// epoch's bucket images, so buckets shared by several ranges are drained once.
type keyRangeHashStore struct{ t *txds.HashTable }

func (s keyRangeHashStore) ExtractRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	return s.t.ExtractKeyRange(th, lo, hi)
}

func (s keyRangeHashStore) ExtractRanges(th *stm.Thread, ranges []txds.KeyRange) ([][]uint32, error) {
	return s.t.ExtractKeyRanges(th, ranges)
}

func (s keyRangeHashStore) InstallKeys(th *stm.Thread, keys []uint32) error {
	return s.t.InstallKeys(th, keys)
}

// dictStore adapts a txds.RangeStore (32-bit scheduling keys) to
// core.ShardStore (the partition's 64-bit key space). A wrapped store that
// batches natively (the dictionary-key hash view) extracts every range in one
// pass; the rest loop over the ranges with identical semantics.
type dictStore struct{ rs txds.RangeStore }

// clampRange folds a 64-bit partition range into the 32-bit dictionary
// space; ok is false when the whole range lies above it.
func clampRange(lo, hi uint64) (lo32, hi32 uint32, ok bool) {
	const max32 = uint64(^uint32(0))
	if lo > max32 {
		return 0, 0, false
	}
	if hi > max32 {
		hi = max32
	}
	return uint32(lo), uint32(hi), true
}

// ExtractRanges implements core.ShardStore. Ranges above the 32-bit space
// extract nothing; their output slot stays empty.
func (s dictStore) ExtractRanges(th *stm.Thread, ranges []core.Range) ([][]uint32, error) {
	out := make([][]uint32, len(ranges))
	type batchStore interface {
		ExtractRanges(th *stm.Thread, ranges []txds.KeyRange) ([][]uint32, error)
	}
	if bs, ok := s.rs.(batchStore); ok {
		// One structure pass for the whole epoch.
		krs := make([]txds.KeyRange, 0, len(ranges))
		slot := make([]int, 0, len(ranges))
		for i, r := range ranges {
			if lo32, hi32, ok := clampRange(r.Lo, r.Hi); ok {
				krs = append(krs, txds.KeyRange{Lo: lo32, Hi: hi32})
				slot = append(slot, i)
			}
		}
		got, err := bs.ExtractRanges(th, krs)
		for i, keys := range got {
			out[slot[i]] = keys
		}
		return out, err
	}
	for i, r := range ranges {
		lo32, hi32, ok := clampRange(r.Lo, r.Hi)
		if !ok {
			continue
		}
		keys, err := s.rs.ExtractRange(th, lo32, hi32)
		out[i] = keys
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (s dictStore) InstallKeys(th *stm.Thread, keys []uint32) error {
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
// the given kind built through DictFactory. The transaction-key function is
// derived from a prototype structure (hash output for hash tables, identity
// otherwise) and is valid for every shard, since all shards are built alike.
func NewShardedExecutor(kind txds.Kind, sched core.SchedulerKind, workers int, opts ...core.AdaptiveOption) (ex *core.Executor, keyFn func(uint32) uint64, err error) {
	proto, err := txds.New(kind)
	if err != nil {
		return nil, nil, err
	}
	keyFn = func(k uint32) uint64 { return uint64(k) }
	maxKey := uint64(dist.MaxKey)
	if ht, ok := proto.(*txds.HashTable); ok {
		keyFn = func(k uint32) uint64 { return uint64(ht.Hash(k)) }
		maxKey = uint64(ht.Buckets() - 1)
	}
	ex, err = core.NewExecutor(
		core.WithSharding(core.ShardPerWorker),
		core.WithWorkloadFactory(NewDictFactory(kind)),
		core.WithWorkers(workers),
		core.WithSchedulerKind(sched, 0, maxKey, opts...),
	)
	if err != nil {
		return nil, nil, err
	}
	return ex, keyFn, nil
}
