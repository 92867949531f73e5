//go:build !race

package stm

import (
	"runtime/debug"
	"testing"
)

// The allocation gates below are not built under the race detector, whose
// instrumentation allocates on its own schedule; CI runs them in its
// non-race gate step.

// TestAtomicReadOnlyAllocs: a steady-state read-only Atomic allocates
// nothing — the Tx shell and the read-set buffer both come from the Thread.
func TestAtomicReadOnlyAllocs(t *testing.T) {
	th := New().NewThread()
	box := NewBox(uint64(7))
	var sum uint64
	read := func(tx *Tx) error {
		v, err := box.Read(tx)
		if err != nil {
			return err
		}
		sum += *v
		return nil
	}
	if err := th.Atomic(read); err != nil { // warm the thread
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(1000, func() {
		if err := th.Atomic(read); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("read-only Atomic allocates %.2f objects/op, want 0", avg)
	}
}

// TestAtomicWriteAllocs: a one-object write Atomic allocates the Tx (its
// locator publishes it, so it cannot be reused), the locator and the clone.
func TestAtomicWriteAllocs(t *testing.T) {
	th := New().NewThread()
	box := NewBox(uint64(0))
	incr := func(tx *Tx) error {
		v, err := box.Write(tx)
		if err != nil {
			return err
		}
		*v++
		return nil
	}
	if err := th.Atomic(incr); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(1000, func() {
		if err := th.Atomic(incr); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 3 {
		t.Fatalf("one-Box write Atomic allocates %.2f objects/op, want <= 3 (Tx, locator, clone)", avg)
	}
}
