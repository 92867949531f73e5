package stm

import (
	"fmt"
	"sync"
	"testing"

	"kstm/internal/rng"
)

// TestOpacityBank checks what TestBankInvariant cannot: that a transaction
// never acts on an inconsistent snapshot, even one that is doomed to abort.
// Transfers conserve the total; every auditor attempt that read all the
// accounts without an error checks the sum inside the closure, before
// commit-time validation could reject it.
//
// This is the test of walk's foreign-owner rule. With the rule deleted (snap
// advanced after a walk that met another transaction's active locator on a
// read object) an auditor reports a sum off by one: on the 2-vCPU build host
// in 20 of 20 runs without -race, and in 10 of 10 with -race -short. With
// the rule it passes, -race included.
func TestOpacityBank(t *testing.T) {
	const (
		accounts  = 16
		each      = 1000
		transfers = 3
		auditors  = 2
	)
	// Per transfer thread; the auditors run for as long. The short count
	// is enough under -race, which is how CI runs it; without -race the
	// window between a writer's bump and its status CAS is hit less often.
	moves := 200000
	if testing.Short() {
		moves = 20000
	}
	s := New()
	boxes := make([]Box[int], accounts)
	for i := range boxes {
		boxes[i] = NewBox(each)
	}
	done := make(chan struct{})
	var movers, checkers sync.WaitGroup
	for g := 0; g < transfers; g++ {
		movers.Add(1)
		go func(seed uint64) {
			defer movers.Done()
			th := s.NewThread()
			r := rng.New(seed)
			for i := 0; i < moves; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				if err := th.Atomic(func(tx *Tx) error {
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
					t.Error(err)
					return
				}
			}
		}(uint64(g) + 1)
	}
	for g := 0; g < auditors; g++ {
		checkers.Add(1)
		go func() {
			defer checkers.Done()
			th := s.NewThread()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := th.Atomic(func(tx *Tx) error {
					sum := 0
					for i := range boxes {
						v, err := boxes[i].Read(tx)
						if err != nil {
							return err
						}
						sum += *v
					}
					if sum != accounts*each {
						return fmt.Errorf("attempt read an inconsistent snapshot: sum %d, want %d", sum, accounts*each)
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	movers.Wait()
	close(done)
	checkers.Wait()
}
