package queue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingRefusesAtCapacity: TryPut accepts exactly n values and refuses
// the next, for power-of-two capacities (masked index) and others (modulo),
// and one Get makes room for exactly one more.
func TestRingRefusesAtCapacity(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 100, 512} {
		r := NewRing[int](n)
		for i := 0; i < n; i++ {
			if !r.TryPut(i) {
				t.Fatalf("cap %d: TryPut %d refused", n, i)
			}
		}
		if r.TryPut(n) {
			t.Fatalf("cap %d: TryPut accepted value %d past capacity", n, n+1)
		}
		if !r.Full() || r.Len() != n {
			t.Fatalf("cap %d: Full = %v, Len = %d at capacity", n, r.Full(), r.Len())
		}
		if v, ok := r.Get(); !ok || v != 0 {
			t.Fatalf("cap %d: Get = (%d,%v), want (0,true)", n, v, ok)
		}
		if r.Full() {
			t.Fatalf("cap %d: Full after a Get", n)
		}
		if !r.TryPut(n) || r.TryPut(n+1) {
			t.Fatalf("cap %d: one Get must make room for exactly one TryPut", n)
		}
	}
}

// TestRingFIFOAcrossLaps keeps the ring partly full while 5 laps of tickets
// pass through every slot, so slot sequences wrap several times.
func TestRingFIFOAcrossLaps(t *testing.T) {
	for _, n := range []int{4, 5} {
		r := NewRing[int](n)
		next, want := 0, 0
		for lap := 0; lap < 5*n; lap++ {
			for r.TryPut(next) {
				next++
			}
			for k := 0; k < n-1; k++ { // leave one behind: head and tail drift
				v, ok := r.Get()
				if !ok || v != want {
					t.Fatalf("cap %d: Get = (%d,%v), want %d", n, v, ok, want)
				}
				want++
			}
		}
		for {
			v, ok := r.Get()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("cap %d: drain Get = %d, want %d", n, v, want)
			}
			want++
		}
		if want != next {
			t.Fatalf("cap %d: delivered %d of %d values", n, want, next)
		}
		if laps := next / n; laps < 3 {
			t.Fatalf("cap %d: only %d laps", n, laps)
		}
	}
}

// TestRingZeroSlotsReadEmpty: the slot array NewRing allocates is all
// zeroes, and that must mean "every slot free, nothing published".
func TestRingZeroSlotsReadEmpty(t *testing.T) {
	r := NewRing[int](8)
	for i := range r.buf {
		if r.buf[i].seq.Load() != 0 {
			t.Fatalf("slot %d sequence %d after NewRing, want 0", i, r.buf[i].seq.Load())
		}
	}
	if v, ok := r.Get(); ok {
		t.Fatalf("Get on a fresh ring = (%d,true)", v)
	}
	if r.Len() != 0 || r.Full() {
		t.Fatalf("fresh ring: Len = %d, Full = %v", r.Len(), r.Full())
	}
	if !r.TryPut(42) {
		t.Fatal("TryPut into a fresh ring refused")
	}
	if v, ok := r.Get(); !ok || v != 42 {
		t.Fatalf("Get = (%d,%v), want (42,true)", v, ok)
	}
}

// TestRingUnpublishedSlotBlocksGet claims a ticket by hand without
// publishing it: Get must report empty — even with a later ticket already
// published — and deliver both, in ticket order, once the claimant publishes.
func TestRingUnpublishedSlotBlocksGet(t *testing.T) {
	r := NewRing[int](4)
	// Claim ticket 0 the way TryPut does, stopping before the write.
	p := r.tail.Load()
	if !r.tail.CompareAndSwap(p, p+1) {
		t.Fatal("claim CAS failed on an idle ring")
	}
	if !r.TryPut(2) { // ticket 1, published
		t.Fatal("TryPut refused")
	}
	if v, ok := r.Get(); ok {
		t.Fatalf("Get past an unpublished head = (%d,true), want empty", v)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (claimed tickets count)", r.Len())
	}
	s, i := r.slot(p)
	s.val = 1
	s.seq.Store(2*p + 1 - 2*i) // publish
	for want := 1; want <= 2; want++ {
		if v, ok := r.Get(); !ok || v != want {
			t.Fatalf("Get = (%d,%v), want %d", v, ok, want)
		}
	}
}

// TestRingMPSCStress: 4 producers × 100 000 tagged values through a small
// ring to one consumer. No value is lost or duplicated, each producer's
// values arrive in order, and Len stays within [0, capacity] throughout.
func TestRingMPSCStress(t *testing.T) {
	const producers, per, capacity = 4, 100_000, 64
	r := NewRing[uint64](capacity)
	var wg sync.WaitGroup
	var stop atomic.Bool
	var badLen atomic.Int64
	badLen.Store(-1)
	wg.Add(1)
	go func() { // observer: Len is read concurrently with both sides
		defer wg.Done()
		for !stop.Load() {
			if n := r.Len(); n < 0 || n > capacity {
				badLen.Store(int64(n))
			}
			runtime.Gosched()
		}
	}()
	var pwg sync.WaitGroup
	for p := uint64(0); p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := uint64(0); i < per; i++ {
				for !r.TryPut(p<<32 | i) {
					runtime.Gosched()
				}
			}
		}()
	}
	var next [producers]uint64
	for got := 0; got < producers*per; {
		v, ok := r.Get()
		if !ok {
			runtime.Gosched()
			continue
		}
		p, i := v>>32, v&(1<<32-1)
		if p >= producers || i != next[p] {
			t.Fatalf("producer %d: got value %d, want %d (lost, duplicated or reordered)", p, i, next[p])
		}
		next[p]++
		got++
	}
	pwg.Wait()
	stop.Store(true)
	wg.Wait()
	if v, ok := r.Get(); ok {
		t.Fatalf("extra value %x after every producer's values arrived", v)
	}
	if n := badLen.Load(); n != -1 {
		t.Fatalf("Len = %d, outside [0, %d]", n, capacity)
	}
}
