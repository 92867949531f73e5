package sim

import (
	"testing"

	"kstm/internal/core"
	"kstm/internal/txds"
)

// quick returns paper-shaped params for tests (the default horizon is
// already sized so caches reach steady state at low worker counts).
func quick() Params {
	return DefaultParams()
}

func runOrFatal(t *testing.T, p Params) Result {
	t.Helper()
	r, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatalf("no completions: %+v", r)
	}
	return r
}

func TestRunValidation(t *testing.T) {
	p := quick()
	p.Workers = 0
	if _, err := Run(p); err == nil {
		t.Error("Workers=0 accepted")
	}
	p = quick()
	p.Producers = 0
	if _, err := Run(p); err == nil {
		t.Error("Producers=0 accepted")
	}
	p = quick()
	p.Dist = "cauchy"
	if _, err := Run(p); err == nil {
		t.Error("unknown dist accepted")
	}
	p = quick()
	p.Structure = "btree"
	if _, err := Run(p); err == nil {
		t.Error("unknown structure accepted")
	}
	p = quick()
	p.Scheduler = "lifo"
	if _, err := Run(p); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, sched := range core.SchedulerKinds() {
		p := quick()
		p.Scheduler = sched
		p.Workers = 4
		a := runOrFatal(t, p)
		b := runOrFatal(t, p)
		if a.Completed != b.Completed || a.Conflicts != b.Conflicts || a.CacheMiss != b.CacheMiss {
			t.Errorf("%s: same seed diverged: %+v vs %+v", sched, a, b)
		}
		for i := range a.PerWorker {
			if a.PerWorker[i] != b.PerWorker[i] {
				t.Errorf("%s: per-worker diverged at %d", sched, i)
			}
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	p := quick()
	a := runOrFatal(t, p)
	p.Seed = 999
	b := runOrFatal(t, p)
	if a.Completed == b.Completed && a.CacheMiss == b.CacheMiss {
		t.Error("different seeds gave identical results (suspicious)")
	}
}

func TestKeyPartitioningBeatsRoundRobinUniform(t *testing.T) {
	// Figure 3 (left), the paper's headline: with uniform keys both
	// key-based executors beat round robin on the hash table (25%+ at 2
	// workers), because partitioned workers keep their buckets cached.
	for _, workers := range []int{2, 8} {
		p := quick()
		p.Workers = workers
		p.Scheduler = core.SchedRoundRobin
		rr := runOrFatal(t, p)
		p.Scheduler = core.SchedFixed
		fx := runOrFatal(t, p)
		p.Scheduler = core.SchedAdaptive
		ad := runOrFatal(t, p)
		minGain := 1.2
		if workers == 2 {
			// At two workers round robin still owns each bucket half the
			// time, so the locality gap is structurally smaller.
			minGain = 1.12
		}
		if fx.Throughput() < rr.Throughput()*minGain {
			t.Errorf("w=%d: fixed %.3g not >=%.2fx round robin %.3g", workers, fx.Throughput(), minGain, rr.Throughput())
		}
		if ad.Throughput() < rr.Throughput()*minGain {
			t.Errorf("w=%d: adaptive %.3g not >=%.2fx round robin %.3g", workers, ad.Throughput(), minGain, rr.Throughput())
		}
		if rr.HitRate() >= fx.HitRate() {
			t.Errorf("w=%d: round robin hit rate %.3f >= fixed %.3f (locality model broken)",
				workers, rr.HitRate(), fx.HitRate())
		}
	}
}

func TestFixedFlatlinesUnderExponential(t *testing.T) {
	// Figure 3 (right): with exponential keys the fixed executor shows no
	// speedup beyond two workers; adaptive keeps scaling.
	p := quick()
	p.Dist = "exponential"
	p.Scheduler = core.SchedFixed
	p.Workers = 2
	fixed2 := runOrFatal(t, p)
	p.Workers = 8
	fixed8 := runOrFatal(t, p)
	if gain := fixed8.Throughput() / fixed2.Throughput(); gain > 1.3 {
		t.Errorf("fixed speedup 2->8 workers = %.2fx, paper expects ~flat", gain)
	}

	p.Scheduler = core.SchedAdaptive
	p.Workers = 8
	ad8 := runOrFatal(t, p)
	if ad8.Throughput() < fixed8.Throughput()*1.5 {
		t.Errorf("adaptive at 8 workers (%.3g) not well above fixed (%.3g)",
			ad8.Throughput(), fixed8.Throughput())
	}
	// Load: fixed piles everything on few workers; adaptive balances.
	if fixed8.LoadImbalance() < 3 {
		t.Errorf("fixed imbalance = %.2f, want severe under exponential", fixed8.LoadImbalance())
	}
	if ad8.LoadImbalance() > 2 {
		t.Errorf("adaptive imbalance = %.2f, want balanced", ad8.LoadImbalance())
	}
}

func TestAdaptiveScalesWithWorkers(t *testing.T) {
	// Adaptive throughput should grow with worker count until producers
	// saturate (the paper's crossover around ten workers).
	p := quick()
	p.Scheduler = core.SchedAdaptive
	var prev float64
	for _, w := range []int{1, 2, 4, 8} {
		p.Workers = w
		r := runOrFatal(t, p)
		if w > 1 && r.Throughput() < prev*1.1 {
			t.Errorf("adaptive did not scale %d workers: %.3g after %.3g", w, r.Throughput(), prev)
		}
		prev = r.Throughput()
	}
}

func TestProducerSaturation(t *testing.T) {
	// With very few producers, adding workers stops helping: the paper's
	// "fixed number of producers are unable to satisfy the processing
	// capacity of additional workers".
	p := quick()
	p.Scheduler = core.SchedAdaptive
	p.Producers = 1
	p.Workers = 2
	two := runOrFatal(t, p)
	p.Workers = 12
	twelve := runOrFatal(t, p)
	if gain := twelve.Throughput() / two.Throughput(); gain > 2 {
		t.Errorf("1 producer fed 12 workers %.2fx faster than 2 (should saturate)", gain)
	}
}

func TestNoExecutorOverheadShape(t *testing.T) {
	// Figure 4: on trivial transactions, k bare threads beat an executor
	// with k workers (the paper sees ~2x overhead at k=2), and the gap
	// narrows as k grows.
	p := quick()
	p.Structure = Empty
	p.NoExecutor = true
	p.Workers = 2
	bare2 := runOrFatal(t, p)

	q := quick()
	q.Structure = Empty
	q.Producers = 6 // paper uses six producers for this test
	q.Scheduler = core.SchedRoundRobin
	q.Workers = 2
	exec2 := runOrFatal(t, q)

	ratio2 := bare2.Throughput() / exec2.Throughput()
	if ratio2 < 1.3 || ratio2 > 4 {
		t.Errorf("overhead ratio at 2 threads = %.2f, want ~2x", ratio2)
	}

	p.Workers = 12
	bare12 := runOrFatal(t, p)
	q.Workers = 12
	exec12 := runOrFatal(t, q)
	ratio12 := bare12.Throughput() / exec12.Throughput()
	if ratio12 > ratio2 {
		t.Errorf("overhead ratio grew with threads: %.2f at 2 vs %.2f at 12", ratio2, ratio12)
	}
}

func TestContentionHigherOnTreeThanHashtable(t *testing.T) {
	// §4.4: hash-table contention is negligible (<1/100 per txn); the
	// red-black tree sees much more (up to ~1/4 under round robin).
	p := quick()
	p.Workers = 8
	p.Scheduler = core.SchedRoundRobin
	ht := runOrFatal(t, p)
	p.Structure = txds.KindRBTree
	tree := runOrFatal(t, p)
	if ht.ContentionRate() > 0.02 {
		t.Errorf("hashtable contention = %.4f, want < 0.02", ht.ContentionRate())
	}
	if tree.ContentionRate() <= ht.ContentionRate() {
		t.Errorf("tree contention (%.4f) not above hashtable (%.4f)",
			tree.ContentionRate(), ht.ContentionRate())
	}
}

func TestKeyPartitioningReducesConflicts(t *testing.T) {
	// §1/§4.4: scheduling similar keys to the same worker removes
	// concurrent execution of conflicting transactions.
	p := quick()
	p.Structure = txds.KindRBTree
	p.Workers = 8
	p.Scheduler = core.SchedRoundRobin
	rr := runOrFatal(t, p)
	p.Scheduler = core.SchedAdaptive
	ad := runOrFatal(t, p)
	if ad.ContentionRate() >= rr.ContentionRate() {
		t.Errorf("adaptive contention %.4f not below round robin %.4f",
			ad.ContentionRate(), rr.ContentionRate())
	}
}

func TestSortedListModelCostsGrowWithRank(t *testing.T) {
	m := newListModel()
	// Fill low keys so a high key's traversal is long.
	for k := uint32(0); k < 8000; k += 2 {
		m.plan(k, true)
	}
	low := m.plan(10, false)     // near the head (key absent: read-only)
	high := m.plan(60001, false) // deep traversal
	if high.baseCost <= low.baseCost {
		t.Errorf("list cost did not grow with rank: %d vs %d", low.baseCost, high.baseCost)
	}
	if len(high.reads) <= len(low.reads) {
		t.Errorf("list reads did not grow with rank: %d vs %d", len(high.reads), len(low.reads))
	}
}

func TestTreeModelSharedPrefixBlocks(t *testing.T) {
	m := newTreeModel(1)
	for k := uint32(0); k < 1024; k++ {
		m.plan(k*64, true)
	}
	a := m.plan(1000, false)
	b := m.plan(1001, false) // adjacent key: nearly identical path
	shared := 0
	set := map[uint32]bool{}
	for _, r := range a.reads {
		set[r] = true
	}
	for _, r := range b.reads {
		if set[r] {
			shared++
		}
	}
	if shared < len(a.reads)-2 {
		t.Errorf("near keys share only %d/%d path blocks", shared, len(a.reads))
	}
	far := m.plan(60000, false)
	sharedFar := 0
	for _, r := range far.reads {
		if set[r] {
			sharedFar++
		}
	}
	if sharedFar > 3 {
		t.Errorf("distant keys share %d path blocks, want only the top", sharedFar)
	}
}

func TestHashModelWriteOpensBucket(t *testing.T) {
	// DSTM IntSet semantics: inserts and deletes open the bucket for
	// writing whether or not the key is present — locator plus chain.
	m := newHashModel()
	for _, insert := range []bool{true, true, false, false} {
		p := m.plan(5, insert)
		if len(p.writes) != 2 {
			t.Fatalf("insert=%v writes = %v, want locator+chain", insert, p.writes)
		}
		if len(p.reads) != 3 {
			t.Fatalf("insert=%v reads = %v, want array+locator+chain", insert, p.reads)
		}
	}
	// Different buckets touch different blocks.
	a := m.plan(5, true)
	aw := append([]uint32{}, a.writes...)
	b := m.plan(6, true)
	for _, x := range aw {
		for _, y := range b.writes {
			if x == y {
				t.Fatalf("buckets 5 and 6 share write block %#x", x)
			}
		}
	}
}

func TestMembership(t *testing.T) {
	var m membership
	if m.has(100) {
		t.Fatal("empty membership has 100")
	}
	if !m.set(100, true) || m.size != 1 {
		t.Fatal("insert failed")
	}
	if m.set(100, true) {
		t.Fatal("duplicate insert changed state")
	}
	if !m.set(100, false) || m.size != 0 {
		t.Fatal("delete failed")
	}
	if m.set(100, false) {
		t.Fatal("absent delete changed state")
	}
}

func TestFenwick(t *testing.T) {
	var f fenwick
	f.add(10, 1)
	f.add(20, 1)
	f.add(30, 1)
	cases := map[uint32]int{0: 0, 10: 0, 11: 1, 20: 1, 21: 2, 31: 3, 65535: 3}
	for k, want := range cases {
		if got := f.prefix(k); got != want {
			t.Errorf("prefix(%d) = %d, want %d", k, got, want)
		}
	}
	f.add(20, -1)
	if got := f.prefix(31); got != 2 {
		t.Errorf("after removal prefix(31) = %d, want 2", got)
	}
}

func TestWorkStealingHelpsFixedUnderSkew(t *testing.T) {
	// The §2 "load balancing" alternative: stealing lets idle workers
	// relieve the overloaded one under the fixed scheduler. With two
	// workers every key lands on worker 0, so worker 1 completes anything
	// only if an enqueue onto busy worker 0 wakes it to steal.
	for _, workers := range []int{2, 8} {
		p := quick()
		p.Dist = "exponential"
		p.Scheduler = core.SchedFixed
		p.Workers = workers
		noSteal := runOrFatal(t, p)
		p.WorkSteal = true
		steal := runOrFatal(t, p)
		if steal.Throughput() < noSteal.Throughput()*1.2 {
			t.Errorf("%d workers: stealing gained only %.2fx under skewed fixed partitioning",
				workers, steal.Throughput()/noSteal.Throughput())
		}
		if steal.PerWorker[1] == 0 {
			t.Errorf("%d workers: the idle worker never stole: per-worker %v", workers, steal.PerWorker)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Completed: 100, SimSeconds: 2, PerWorker: []uint64{60, 40}, CacheHits: 3, CacheMiss: 1, Conflicts: 10}
	if r.Throughput() != 50 {
		t.Errorf("Throughput = %v", r.Throughput())
	}
	if r.LoadImbalance() != 1.2 {
		t.Errorf("LoadImbalance = %v", r.LoadImbalance())
	}
	if r.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", r.HitRate())
	}
	if r.ContentionRate() != 0.1 {
		t.Errorf("ContentionRate = %v", r.ContentionRate())
	}
	if r.String() == "" {
		t.Error("empty String")
	}
	var zero Result
	if zero.Throughput() != 0 || zero.LoadImbalance() != 1 || zero.HitRate() != 0 || zero.ContentionRate() != 0 {
		t.Error("zero-value accessors wrong")
	}
}

func BenchmarkSimHashtableAdaptive(b *testing.B) {
	p := quick()
	p.Scheduler = core.SchedAdaptive
	p.Workers = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p); err != nil {
			b.Fatal(err)
		}
	}
}
