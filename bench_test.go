// Benchmarks that regenerate every table and figure in the paper's
// evaluation. Each figure family reports the reproduced metric as a custom
// unit: sim_txn/s is throughput on the simulated 16-processor testbed (the
// y axis of Figures 3 and 4), so the *shape* across sub-benchmarks — who
// wins, by what factor, where curves flatten — is the reproduction, not the
// ns/op column. `go run ./cmd/kbench -experiment all` prints the full
// tables; DESIGN.md §7 maps each one to the paper artifact it reproduces.
package kstm_test

import (
	"fmt"
	"testing"

	"kstm"
	"kstm/internal/core"
	"kstm/internal/dist"
	"kstm/internal/harness"
	"kstm/internal/queue"
	"kstm/internal/sim"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// benchThreads is the paper's 2-16 sweep, thinned to keep -bench runs
// manageable; kbench sweeps every even count.
var benchThreads = []int{2, 8, 16}

// simThroughput runs one simulator configuration per b.N iteration and
// reports mean simulated throughput.
func simThroughput(b *testing.B, p sim.Params) {
	b.Helper()
	var total float64
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i + 1)
		r, err := sim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Throughput()
	}
	b.ReportMetric(total/float64(b.N), "sim_txn/s")
}

// benchFig3 is one Figure 3 panel: a distribution swept over schedulers and
// worker counts on the simulated hash table.
func benchFig3(b *testing.B, distName string) {
	for _, sched := range core.SchedulerKinds() {
		for _, w := range benchThreads {
			b.Run(fmt.Sprintf("%s/w%d", sched, w), func(b *testing.B) {
				p := sim.DefaultParams()
				p.Structure = txds.KindHashTable
				p.Dist = distName
				p.Scheduler = sched
				p.Workers = w
				p.Producers = 8
				simThroughput(b, p)
			})
		}
	}
}

func BenchmarkFig3HashtableUniform(b *testing.B)     { benchFig3(b, "uniform") }
func BenchmarkFig3HashtableGaussian(b *testing.B)    { benchFig3(b, "gaussian") }
func BenchmarkFig3HashtableExponential(b *testing.B) { benchFig3(b, "exponential") }

// BenchmarkFig4Overhead reproduces Figure 4: trivial transactions on bare
// threads vs. through the executor (6 producers).
func BenchmarkFig4Overhead(b *testing.B) {
	for _, w := range benchThreads {
		b.Run(fmt.Sprintf("noexecutor/w%d", w), func(b *testing.B) {
			p := sim.DefaultParams()
			p.Structure = sim.Empty
			p.NoExecutor = true
			p.Workers = w
			simThroughput(b, p)
		})
		b.Run(fmt.Sprintf("executor/w%d", w), func(b *testing.B) {
			p := sim.DefaultParams()
			p.Structure = sim.Empty
			p.Workers = w
			p.Producers = 6
			p.Scheduler = core.SchedRoundRobin
			simThroughput(b, p)
		})
	}
}

// benchStructure covers the tech-report companions: red-black tree and
// sorted list under all three distributions (4 producers, as in the paper).
func benchStructure(b *testing.B, kind txds.Kind) {
	for _, d := range dist.Names() {
		for _, sched := range core.SchedulerKinds() {
			b.Run(fmt.Sprintf("%s/%s/w8", d, sched), func(b *testing.B) {
				p := sim.DefaultParams()
				p.Structure = kind
				p.Dist = d
				p.Scheduler = sched
				p.Workers = 8
				p.Producers = 4
				simThroughput(b, p)
			})
		}
	}
}

func BenchmarkTRRBTree(b *testing.B)     { benchStructure(b, txds.KindRBTree) }
func BenchmarkTRSortedList(b *testing.B) { benchStructure(b, txds.KindSortedList) }

// BenchmarkTRContention reports conflicts per transaction (the §4.4 table)
// as a custom metric for the round-robin worst case.
func BenchmarkTRContention(b *testing.B) {
	for _, kind := range txds.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams()
				p.Structure = kind
				p.Workers = 8
				p.Scheduler = core.SchedRoundRobin
				p.Seed = uint64(i + 1)
				r, err := sim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				total += r.ContentionRate()
			}
			b.ReportMetric(total/float64(b.N), "conflicts/txn")
		})
	}
}

// BenchmarkAblationThreshold sweeps the adaptive sample threshold.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{100, 1000, 10000, 50000} {
		b.Run(fmt.Sprintf("threshold%d", th), func(b *testing.B) {
			p := sim.DefaultParams()
			p.Workers = 8
			p.Scheduler = core.SchedAdaptive
			p.Dist = "exponential"
			p.Threshold = th
			simThroughput(b, p)
		})
	}
}

// BenchmarkAblationWorkSteal measures stealing under skewed fixed
// partitioning.
func BenchmarkAblationWorkSteal(b *testing.B) {
	for _, steal := range []bool{false, true} {
		b.Run(fmt.Sprintf("steal=%v", steal), func(b *testing.B) {
			p := sim.DefaultParams()
			p.Workers = 8
			p.Scheduler = core.SchedFixed
			p.Dist = "exponential"
			p.WorkSteal = steal
			simThroughput(b, p)
		})
	}
}

// BenchmarkAblationQueue compares task-queue implementations on the real
// executor (host-dependent wall-clock numbers).
func BenchmarkAblationQueue(b *testing.B) {
	for _, k := range queue.Kinds() {
		b.Run(string(k), func(b *testing.B) {
			cfg, err := harness.NewRealConfig(txds.KindHashTable, "uniform", core.SchedAdaptive, 2, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg.QueueKind = k
			pool, err := core.NewPool(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.RunCount(2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationContentionManager stresses each manager on the real STM
// with a deliberately small table.
func BenchmarkAblationContentionManager(b *testing.B) {
	for _, m := range stm.Managers() {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			s := stm.New(stm.WithContentionManager(m.New))
			set := txds.NewHashTable(31)
			th := s.NewThread()
			src := dist.NewUniform(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, insert := dist.Split(src.Next())
				var err error
				if insert {
					_, err = set.Insert(th, key)
				} else {
					_, err = set.Delete(th, key)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSortBatch measures the §2 buffer-reordering capability on
// the real executor.
func BenchmarkAblationSortBatch(b *testing.B) {
	for _, batch := range []int{0, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			cfg, err := harness.NewRealConfig(txds.KindHashTable, "gaussian", core.SchedAdaptive, 2, 2, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg.SortBatch = batch
			pool, err := core.NewPool(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.RunCount(2000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealSTM measures raw STM primitives on this host.
func BenchmarkRealSTM(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		s := kstm.New()
		box := kstm.NewBox(0)
		th := s.NewThread()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(func(tx *kstm.Tx) error {
				v, err := box.Write(tx)
				if err != nil {
					return err
				}
				*v++
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-only", func(b *testing.B) {
		s := kstm.New()
		box := kstm.NewBox(42)
		th := s.NewThread()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := th.Atomic(func(tx *kstm.Tx) error {
				_, err := box.Read(tx)
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, kind := range txds.Kinds() {
		kind := kind
		b.Run(string(kind)+"-ops", func(b *testing.B) {
			s := kstm.New()
			set, err := txds.New(kind)
			if err != nil {
				b.Fatal(err)
			}
			th := s.NewThread()
			src := dist.NewUniform(7)
			// Pre-fill lists modestly so op cost is realistic but bounded.
			limit := uint32(1 << 16)
			if kind == txds.KindSortedList {
				limit = 1 << 10
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, insert := dist.Split(src.Next())
				key %= limit
				if insert {
					_, err = set.Insert(th, key)
				} else {
					_, err = set.Delete(th, key)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
