// Command stmcheck stress-tests the STM's correctness on this host: it runs
// concurrent workloads whose outcomes have checkable invariants (lost-update
// freedom, conserved bank totals, consistent snapshots in every attempt,
// red-black tree shape, dictionary-vs-oracle agreement) under every
// contention manager, and reports the statistics.
//
// Usage:
//
//	stmcheck                  # default: all checks, all managers, ~seconds
//	stmcheck -ops 20000 -goroutines 8
//	stmcheck -manager polka   # a single manager
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"kstm/internal/rng"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stmcheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stmcheck", flag.ContinueOnError)
	var (
		ops        = fs.Int("ops", 5000, "operations per goroutine per check")
		goroutines = fs.Int("goroutines", 4, "concurrent goroutines per check")
		manager    = fs.String("manager", "", "single contention manager (default: all)")
		seed       = fs.Uint64("seed", 1, "PRNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	managers := stm.Managers()
	if *manager != "" {
		factory, err := stm.ManagerByName(*manager)
		if err != nil {
			return err
		}
		managers = managers[:0]
		managers = append(managers, struct {
			Name string
			New  func() stm.ContentionManager
		}{*manager, factory})
	}

	failures := 0
	for _, m := range managers {
		fmt.Printf("== contention manager: %s\n", m.Name)
		s := stm.New(stm.WithContentionManager(m.New))
		for _, check := range checks() {
			err := check.run(s, *goroutines, *ops, *seed)
			status := "ok"
			if err != nil {
				status = "FAIL: " + err.Error()
				failures++
			}
			fmt.Printf("   %-24s %s\n", check.name, status)
		}
		st := s.Stats()
		fmt.Printf("   stats: %s\n", st)
	}
	if failures > 0 {
		return fmt.Errorf("%d check(s) failed", failures)
	}
	fmt.Println("all checks passed")
	return nil
}

type check struct {
	name string
	run  func(s *stm.STM, goroutines, ops int, seed uint64) error
}

func checks() []check {
	return []check{
		{"lost-update counter", checkCounter},
		{"bank conservation", checkBank},
		{"opacity", checkOpacity},
		{"hashtable vs oracle", func(s *stm.STM, g, o int, seed uint64) error {
			return checkDictionary(s, txds.NewHashTable(64), g, o, seed)
		}},
		{"rbtree invariants", checkRBTree},
		{"sortedlist order", checkSortedList},
	}
}

// checkCounter: concurrent increments must not lose updates.
func checkCounter(s *stm.STM, goroutines, ops int, seed uint64) error {
	box := stm.NewBox(0)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.NewThread()
			for i := 0; i < ops; i++ {
				if err := th.Atomic(func(tx *stm.Tx) error {
					v, err := box.Write(tx)
					if err != nil {
						return err
					}
					*v++
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	tx := s.NewThread().Begin()
	v, err := box.Read(tx)
	if err != nil {
		return err
	}
	if *v != goroutines*ops {
		return fmt.Errorf("counter = %d, want %d", *v, goroutines*ops)
	}
	return nil
}

// checkBank: random transfers conserve the total while a concurrent auditor
// reads consistent snapshots.
func checkBank(s *stm.STM, goroutines, ops int, seed uint64) error {
	boxes, total := newBank()
	errs := make(chan error, goroutines+1)
	wg := startTransfers(s, boxes, goroutines, ops, seed, errs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := s.NewThread()
		for audits := 0; audits < 50; audits++ {
			sum := 0
			if err := th.Atomic(func(tx *stm.Tx) error {
				// Reinitialize at closure entry: an aborted attempt re-runs
				// the closure, and without this reset the partial sum from
				// the failed attempt would carry over (kstmvet:atomiceffect).
				sum = 0
				for i := range boxes {
					v, err := boxes[i].Read(tx)
					if err != nil {
						return err
					}
					sum += *v
				}
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if sum != total {
				errs <- fmt.Errorf("audit total %d, want %d", sum, total)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errs)
	return <-errs
}

// newBank returns the accounts of the two bank checks and their total.
func newBank() (boxes []stm.Box[int], total int) {
	const accounts, each = 16, 1000
	boxes = make([]stm.Box[int], accounts)
	for i := range boxes {
		boxes[i] = stm.NewBox(each)
	}
	return boxes, accounts * each
}

// startTransfers starts the goroutines of the bank checks: each moves one
// unit between two random accounts, ops times.
func startTransfers(s *stm.STM, boxes []stm.Box[int], goroutines, ops int, seed uint64, errs chan<- error) *sync.WaitGroup {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := s.NewThread()
			r := rng.New(seed + uint64(id))
			for i := 0; i < ops; i++ {
				from := r.Intn(len(boxes))
				to := r.Intn(len(boxes))
				if from == to {
					continue
				}
				if err := th.Atomic(func(tx *stm.Tx) error {
					wf, err := boxes[from].Write(tx)
					if err != nil {
						return err
					}
					wt, err := boxes[to].Write(tx)
					if err != nil {
						return err
					}
					*wf--
					*wt++
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	return &wg
}

// checkOpacity: no attempt, not even one that will abort, may act on an
// inconsistent snapshot. Two auditors run for as long as the transfers do
// and check the total inside the closure, on every attempt that read all
// the accounts without an error — before commit-time validation could
// reject it, which is all checkBank's audit can see.
func checkOpacity(s *stm.STM, goroutines, ops int, seed uint64) error {
	const auditors = 2
	boxes, total := newBank()
	errs := make(chan error, goroutines+auditors)
	transfers := startTransfers(s, boxes, goroutines, ops, seed, errs)
	stop := make(chan struct{})
	var audits sync.WaitGroup
	for a := 0; a < auditors; a++ {
		audits.Add(1)
		go func() {
			defer audits.Done()
			th := s.NewThread()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := th.Atomic(func(tx *stm.Tx) error {
					sum := 0
					for i := range boxes {
						v, err := boxes[i].Read(tx)
						if err != nil {
							return err
						}
						sum += *v
					}
					if sum != total {
						return fmt.Errorf("an attempt read total %d, want %d", sum, total)
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	transfers.Wait()
	close(stop)
	audits.Wait()
	close(errs)
	return <-errs
}

// checkDictionary: concurrent random churn, then a single-threaded diff
// against a replayed oracle is impossible (interleaving unknown), so check
// structural sanity: no duplicates observable through Contains/Delete.
func checkDictionary(s *stm.STM, set txds.IntSet, goroutines, ops int, seed uint64) error {
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := s.NewThread()
			r := rng.New(seed + uint64(id)*7)
			for i := 0; i < ops; i++ {
				key := uint32(r.Uint64n(256))
				var err error
				if r.Uint64()&1 == 0 {
					_, err = set.Insert(th, key)
				} else {
					_, err = set.Delete(th, key)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	// Deleting every key twice: the second delete must report absent.
	th := s.NewThread()
	for key := uint32(0); key < 256; key++ {
		first, err := set.Delete(th, key)
		if err != nil {
			return err
		}
		second, err := set.Delete(th, key)
		if err != nil {
			return err
		}
		if second {
			return fmt.Errorf("key %d deleted twice (duplicate insert; first=%v)", key, first)
		}
	}
	return nil
}

// checkRBTree: concurrent churn must preserve the red-black invariants.
func checkRBTree(s *stm.STM, goroutines, ops int, seed uint64) error {
	tree := txds.NewRBTree()
	if err := checkDictionaryNoDrain(s, tree, goroutines, ops, seed); err != nil {
		return err
	}
	th := s.NewThread()
	if _, err := tree.CheckInvariants(th); err != nil {
		return err
	}
	keys, err := tree.Keys(th)
	if err != nil {
		return err
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		return fmt.Errorf("in-order walk unsorted")
	}
	return nil
}

// checkSortedList: concurrent churn must keep the list sorted and
// duplicate-free.
func checkSortedList(s *stm.STM, goroutines, ops int, seed uint64) error {
	l := txds.NewSortedList()
	if err := checkDictionaryNoDrain(s, l, goroutines, ops/4, seed); err != nil {
		return err
	}
	th := s.NewThread()
	keys, err := l.Keys(th)
	if err != nil {
		return err
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("list out of order at %d: %d >= %d", i, keys[i-1], keys[i])
		}
	}
	return nil
}

// checkDictionaryNoDrain is the churn phase shared by the structure checks.
func checkDictionaryNoDrain(s *stm.STM, set txds.IntSet, goroutines, ops int, seed uint64) error {
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := s.NewThread()
			r := rng.New(seed + uint64(id)*13)
			for i := 0; i < ops; i++ {
				key := uint32(r.Uint64n(512))
				var err error
				if r.Uint64()&1 == 0 {
					_, err = set.Insert(th, key)
				} else {
					_, err = set.Delete(th, key)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	return <-errs
}
