package stm

import (
	"errors"
	"sync"
	"testing"
)

func TestBoxReadWriteCommit(t *testing.T) {
	s := New()
	b := NewBox(10)
	th := s.NewThread()

	tx := th.Begin()
	v, err := b.Read(tx)
	if err != nil {
		t.Fatal(err)
	}
	if *v != 10 {
		t.Fatalf("initial read = %d, want 10", *v)
	}
	w, err := b.Write(tx)
	if err != nil {
		t.Fatal(err)
	}
	*w = 42
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	tx2 := th.Begin()
	v2, err := b.Read(tx2)
	if err != nil {
		t.Fatal(err)
	}
	if *v2 != 42 {
		t.Fatalf("read after commit = %d, want 42", *v2)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := New()
	b := NewBox(1)
	th := s.NewThread()

	tx := th.Begin()
	w, err := b.Write(tx)
	if err != nil {
		t.Fatal(err)
	}
	*w = 99
	tx.Abort()
	if !tx.Aborted() {
		t.Fatal("tx not aborted")
	}

	tx2 := th.Begin()
	v, err := b.Read(tx2)
	if err != nil {
		t.Fatal(err)
	}
	if *v != 1 {
		t.Fatalf("read after abort = %d, want 1", *v)
	}
}

func TestUseAfterCommitFails(t *testing.T) {
	s := New()
	b := NewBox(0)
	th := s.NewThread()
	tx := th.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(tx); !errors.Is(err, ErrNotActive) {
		t.Errorf("Read after commit: err = %v, want ErrNotActive", err)
	}
	if _, err := b.Write(tx); !errors.Is(err, ErrNotActive) {
		t.Errorf("Write after commit: err = %v, want ErrNotActive", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("second Commit: err = %v, want ErrAborted", err)
	}
}

func TestReadOwnWrite(t *testing.T) {
	s := New()
	b := NewBox(5)
	th := s.NewThread()
	tx := th.Begin()
	w, _ := b.Write(tx)
	*w = 7
	r, err := b.Read(tx)
	if err != nil {
		t.Fatal(err)
	}
	if *r != 7 {
		t.Fatalf("read own write = %d, want 7", *r)
	}
	// Write again should return the same clone.
	w2, _ := b.Write(tx)
	if w2 != w {
		t.Fatal("second Write returned a different clone")
	}
}

func TestWriteSkewPrevented(t *testing.T) {
	// Classic write-skew: tx1 reads A writes B, tx2 reads B writes A.
	// Serializability requires at least one to abort when interleaved.
	s := New()
	a, b := NewBox(0), NewBox(0)
	th1, th2 := s.NewThread(), s.NewThread()

	tx1 := th1.Begin()
	if _, err := a.Read(tx1); err != nil {
		t.Fatal(err)
	}
	tx2 := th2.Begin()
	if _, err := b.Read(tx2); err != nil {
		t.Fatal(err)
	}
	w1, err := b.Write(tx1)
	if err == nil {
		*w1 = 1
	}
	w2, err2 := a.Write(tx2)
	if err2 == nil {
		*w2 = 1
	}
	err1c := tx1.Commit()
	err2c := tx2.Commit()
	if err1c == nil && err2c == nil {
		t.Fatal("both write-skew transactions committed")
	}
}

func TestConflictingWritersOneWins(t *testing.T) {
	s := New(WithContentionManager(NewAggressive))
	b := NewBox(0)
	th1, th2 := s.NewThread(), s.NewThread()

	tx1 := th1.Begin()
	w1, err := b.Write(tx1)
	if err != nil {
		t.Fatal(err)
	}
	*w1 = 1

	// tx2 steals the object (Aggressive aborts tx1).
	tx2 := th2.Begin()
	w2, err := b.Write(tx2)
	if err != nil {
		t.Fatal(err)
	}
	*w2 = 2
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx1.Aborted() {
		t.Error("victim not aborted")
	}
	if err := tx1.Commit(); !errors.Is(err, ErrAborted) {
		t.Errorf("victim Commit err = %v, want ErrAborted", err)
	}

	tx3 := th1.Begin()
	v, _ := b.Read(tx3)
	if *v != 2 {
		t.Fatalf("final value = %d, want 2", *v)
	}
}

func TestInvisibleReadInvalidation(t *testing.T) {
	// A reader whose read set is invalidated by a competing commit must
	// abort rather than see an inconsistent snapshot.
	s := New(WithContentionManager(NewAggressive))
	a, b := NewBox(0), NewBox(0)
	thR, thW := s.NewThread(), s.NewThread()

	txR := thR.Begin()
	if _, err := a.Read(txR); err != nil {
		t.Fatal(err)
	}

	// Writer updates a and b atomically.
	if err := thW.Atomic(func(tx *Tx) error {
		wa, err := a.Write(tx)
		if err != nil {
			return err
		}
		wb, err := b.Write(tx)
		if err != nil {
			return err
		}
		*wa, *wb = 1, 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The reader's next open must fail validation: a changed after we
	// read it.
	_, err := b.Read(txR)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("stale reader Read err = %v, want ErrAborted", err)
	}
	if !txR.Aborted() {
		t.Error("stale reader not aborted")
	}
}

func TestAtomicRetries(t *testing.T) {
	s := New()
	b := NewBox(0)
	th := s.NewThread()
	attempts := 0
	err := th.Atomic(func(tx *Tx) error {
		attempts++
		if attempts < 3 {
			// Simulate a doomed attempt: abort ourselves.
			tx.Abort()
			return ErrAborted
		}
		w, err := b.Write(tx)
		if err != nil {
			return err
		}
		*w = attempts
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	tx := th.Begin()
	v, _ := b.Read(tx)
	if *v != 3 {
		t.Fatalf("value = %d, want 3", *v)
	}
}

func TestAtomicPropagatesUserError(t *testing.T) {
	s := New()
	th := s.NewThread()
	sentinel := errors.New("user error")
	attempts := 0
	err := th.Atomic(func(tx *Tx) error {
		attempts++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if attempts != 1 {
		t.Fatalf("user error retried %d times", attempts)
	}
}

func TestCounterConcurrent(t *testing.T) {
	// The fundamental STM smoke test: concurrent increments never lose
	// updates.
	s := New()
	b := NewBox(0)
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.NewThread()
			for i := 0; i < perG; i++ {
				err := th.Atomic(func(tx *Tx) error {
					w, err := b.Write(tx)
					if err != nil {
						return err
					}
					*w++
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	th := s.NewThread()
	tx := th.Begin()
	v, _ := b.Read(tx)
	if *v != goroutines*perG {
		t.Fatalf("counter = %d, want %d", *v, goroutines*perG)
	}
}

func TestCounterConcurrentAllManagers(t *testing.T) {
	for _, m := range Managers() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			s := New(WithContentionManager(m.New))
			b := NewBox(0)
			const goroutines, perG = 4, 150
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := s.NewThread()
					for i := 0; i < perG; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							w, err := b.Write(tx)
							if err != nil {
								return err
							}
							*w++
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			tx := s.NewThread().Begin()
			v, _ := b.Read(tx)
			if *v != goroutines*perG {
				t.Fatalf("%s: counter = %d, want %d", m.Name, *v, goroutines*perG)
			}
		})
	}
}

func TestBankInvariant(t *testing.T) {
	// Transfers between accounts must conserve the total (snapshot
	// isolation + serializability check under contention).
	s := New()
	const accounts = 8
	const total = 1000 * accounts
	boxes := make([]Box[int], accounts)
	for i := range boxes {
		boxes[i] = NewBox(1000)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Transfer goroutines.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			th := s.NewThread()
			for i := 0; i < 400; i++ {
				from, to := (seed+i)%accounts, (seed+i*7+1)%accounts
				if from == to {
					continue
				}
				err := th.Atomic(func(tx *Tx) error {
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
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Auditor: every observed snapshot must sum to total.
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		th := s.NewThread()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sum := 0
			err := th.Atomic(func(tx *Tx) error {
				sum = 0
				for i := range boxes {
					v, err := boxes[i].Read(tx)
					if err != nil {
						return err
					}
					sum += *v
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if sum != total {
				t.Errorf("audit saw total %d, want %d", sum, total)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-auditDone
}

func TestStatsCounting(t *testing.T) {
	s := New()
	b := NewBox(0)
	th := s.NewThread()
	if err := th.Atomic(func(tx *Tx) error {
		if _, err := b.Read(tx); err != nil {
			return err
		}
		w, err := b.Write(tx)
		if err != nil {
			return err
		}
		*w = 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Commits != 1 || st.Begins != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/1", st.Reads, st.Writes)
	}
	s.ResetStats()
	if s.Stats().Commits != 0 {
		t.Error("ResetStats did not clear")
	}
	// Snapshot Sub.
	a := StatsSnapshot{Commits: 5, Begins: 7}
	d := a.Sub(StatsSnapshot{Commits: 2, Begins: 3})
	if d.Commits != 3 || d.Begins != 4 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestContentionRate(t *testing.T) {
	st := StatsSnapshot{Conflicts: 5, Commits: 100}
	if got := st.ContentionRate(); got != 0.05 {
		t.Errorf("ContentionRate = %v", got)
	}
	if (StatsSnapshot{}).ContentionRate() != 0 {
		t.Error("empty ContentionRate != 0")
	}
}

func TestNewObjectRequiresClone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewObject(nil clone) did not panic")
		}
	}()
	NewObject(new(int), nil)
}

// TestNewObjectsIndependent: slab objects share their first locator and
// initial version, and nothing else — a write to one is invisible through
// the others, and the shared initial version is never written.
func TestNewObjectsIndependent(t *testing.T) {
	initial := new(int)
	objs := NewObjects(3, initial, func(v any) any { c := *v.(*int); return &c })
	th := New().NewThread()
	if err := th.Atomic(func(tx *Tx) error {
		w, err := tx.Write(&objs[1])
		if err != nil {
			return err
		}
		*w.(*int) = 5
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := th.Begin()
	for i, want := range []int{0, 5, 0} {
		v, err := tx.Read(&objs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := *v.(*int); got != want {
			t.Errorf("object %d = %d, want %d", i, got, want)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("reader of untouched slab objects failed to commit: %v", err)
	}
	if *initial != 0 {
		t.Errorf("shared initial version was written: %d", *initial)
	}
}

func TestObjectCustomClone(t *testing.T) {
	// Deep-clone semantics for slice-bearing versions.
	type bucket struct{ items []int }
	clone := func(v any) any {
		b := v.(*bucket)
		c := &bucket{items: make([]int, len(b.items))}
		copy(c.items, b.items)
		return c
	}
	o := NewObject(&bucket{}, clone)
	s := New()
	th := s.NewThread()
	if err := th.Atomic(func(tx *Tx) error {
		v, err := tx.Write(o)
		if err != nil {
			return err
		}
		b := v.(*bucket)
		b.items = append(b.items, 1, 2, 3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Abort a mutation; committed version must be unaffected.
	tx := th.Begin()
	v, _ := tx.Write(o)
	v.(*bucket).items[0] = 99
	tx.Abort()

	tx2 := th.Begin()
	r, _ := tx2.Read(o)
	if got := r.(*bucket).items[0]; got != 1 {
		t.Fatalf("aborted clone leaked into committed version: %d", got)
	}
}

func TestTxStringAndAccessors(t *testing.T) {
	s := New()
	th := s.NewThread()
	tx := th.Begin()
	if tx.ThreadID() != th.ID() {
		t.Error("ThreadID mismatch")
	}
	if tx.Timestamp() == 0 {
		t.Error("zero timestamp")
	}
	if got := tx.String(); got == "" {
		t.Error("empty String()")
	}
	b := NewBox(1)
	b.Read(tx)
	b.Write(tx)
	if tx.ReadSetSize() != 1 || tx.WriteSetSize() != 1 {
		t.Errorf("set sizes = %d/%d", tx.ReadSetSize(), tx.WriteSetSize())
	}
	tx.Commit()
	if tx.String() == "" || !tx.Committed() {
		t.Error("committed state not reflected")
	}
	if b.Object() == nil {
		t.Error("Box.Object() nil")
	}
}

func TestThreadAccessors(t *testing.T) {
	s := New()
	th := s.NewThread()
	if th.ManagerName() != "polka" {
		t.Errorf("default manager = %q, want polka", th.ManagerName())
	}
	th2 := s.NewThread()
	if th.ID() == th2.ID() {
		t.Error("thread IDs collide")
	}
}

func TestValidateExposed(t *testing.T) {
	s := New(WithContentionManager(NewAggressive))
	b := NewBox(0)
	th1, th2 := s.NewThread(), s.NewThread()
	tx := th1.Begin()
	if _, err := b.Read(tx); err != nil {
		t.Fatal(err)
	}
	if !tx.Validate() {
		t.Fatal("fresh read set failed validation")
	}
	if err := th2.Atomic(func(t2 *Tx) error {
		w, err := b.Write(t2)
		if err != nil {
			return err
		}
		*w = 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tx.Validate() {
		t.Fatal("stale read set passed validation")
	}
}
