package queue

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

func allKinds(t *testing.T) map[Kind]Queue[int] {
	t.Helper()
	out := map[Kind]Queue[int]{}
	for _, k := range Kinds() {
		q, err := New[int](k)
		if err != nil {
			t.Fatalf("New(%q): %v", k, err)
		}
		out[k] = q
	}
	return out
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New[int](Kind("bogus")); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
}

func TestFIFOAllKinds(t *testing.T) {
	for k, q := range allKinds(t) {
		const n = 500
		for i := 0; i < n; i++ {
			q.Put(i)
		}
		if q.Len() != n {
			t.Errorf("%s: Len = %d, want %d", k, q.Len(), n)
		}
		for i := 0; i < n; i++ {
			v, ok := q.Get()
			if !ok || v != i {
				t.Fatalf("%s: Get %d = (%d,%v)", k, i, v, ok)
			}
		}
		if _, ok := q.Get(); ok {
			t.Errorf("%s: not empty after drain", k)
		}
	}
}

func TestEmptyGetAllKinds(t *testing.T) {
	for k, q := range allKinds(t) {
		if v, ok := q.Get(); ok {
			t.Errorf("%s: Get on empty = (%d,true)", k, v)
		}
		if q.Len() != 0 {
			t.Errorf("%s: Len on empty = %d", k, q.Len())
		}
	}
}

func TestMutexRingGrowth(t *testing.T) {
	q := NewMutex[int]()
	// Interleave puts and gets so head is non-zero when growth happens.
	for i := 0; i < 10; i++ {
		q.Put(i)
	}
	for i := 0; i < 5; i++ {
		q.Get()
	}
	for i := 10; i < 200; i++ {
		q.Put(i)
	}
	for want := 5; want < 200; want++ {
		v, ok := q.Get()
		if !ok || v != want {
			t.Fatalf("after growth: Get = (%d,%v), want %d", v, ok, want)
		}
	}
}

func TestChanOverflowPreservesFIFO(t *testing.T) {
	q := NewChan[int](4) // tiny buffer forces the overflow path
	const n = 100
	for i := 0; i < n; i++ {
		q.Put(i)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Get()
		if !ok || v != i {
			t.Fatalf("overflowed chan: Get %d = (%d,%v)", i, v, ok)
		}
	}
}

func TestChanDefaultCapacity(t *testing.T) {
	q := NewChan[int](0)
	q.Put(7)
	if v, ok := q.Get(); !ok || v != 7 {
		t.Fatalf("Get = (%d,%v)", v, ok)
	}
}

func TestMPMCConservationAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			t.Parallel()
			q, err := New[int](k)
			if err != nil {
				t.Fatal(err)
			}
			const producers, per = 4, 3000
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(base int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Put(base + i)
					}
				}(p * per)
			}
			var mu sync.Mutex
			var got []int
			var cwg sync.WaitGroup
			done := make(chan struct{})
			for c := 0; c < 4; c++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for {
						v, ok := q.Get()
						if ok {
							mu.Lock()
							got = append(got, v)
							mu.Unlock()
							continue
						}
						select {
						case <-done:
							for {
								v, ok := q.Get()
								if !ok {
									return
								}
								mu.Lock()
								got = append(got, v)
								mu.Unlock()
							}
						default:
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			cwg.Wait()
			if len(got) != producers*per {
				t.Fatalf("got %d elements, want %d", len(got), producers*per)
			}
			sort.Ints(got)
			for i, v := range got {
				if v != i {
					t.Fatalf("element %d missing or duplicated", i)
				}
			}
		})
	}
}

// TestMPSCAllKinds runs every transport in the executor's shape — several
// producers, one consumer — and checks conservation and per-producer FIFO:
// the three Queue kinds and the bounded Ring (whose producers retry on a full
// ring, as the executor's backpressure does).
func TestMPSCAllKinds(t *testing.T) {
	type transport struct {
		put func(int) bool
		get func() (int, bool)
	}
	kinds := map[string]transport{}
	for _, k := range Kinds() {
		q, err := New[int](k)
		if err != nil {
			t.Fatal(err)
		}
		kinds[string(k)] = transport{put: func(v int) bool { q.Put(v); return true }, get: q.Get}
	}
	r := NewRing[int](16)
	kinds["ring"] = transport{put: r.TryPut, get: r.Get}
	for name, tr := range kinds {
		t.Run(name, func(t *testing.T) {
			const producers, per = 2, 5000
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						for !tr.put(p*per + i) {
							runtime.Gosched()
						}
					}
				}()
			}
			var next [producers]int
			for got := 0; got < producers*per; {
				v, ok := tr.get()
				if !ok {
					runtime.Gosched()
					continue
				}
				p, i := v/per, v%per
				if i != next[p] {
					t.Fatalf("producer %d: got %d, want %d", p, i, next[p])
				}
				next[p]++
				got++
			}
			wg.Wait()
			if v, ok := tr.get(); ok {
				t.Fatalf("extra element %d", v)
			}
		})
	}
}

func BenchmarkQueues(b *testing.B) {
	for _, k := range Kinds() {
		k := k
		b.Run(string(k), func(b *testing.B) {
			q, err := New[int](k)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q.Put(1)
					q.Get()
				}
			})
		})
	}
}

// TestPutAllFIFOAndContiguity: every implementation delivers a PutAll batch
// in order, and concurrent batches never interleave their elements.
func TestPutAllFIFOAndContiguity(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			q, err := New[int](k)
			if err != nil {
				t.Fatal(err)
			}
			// Order within a batch, across batches from one producer.
			q.PutAll([]int{1, 2, 3})
			q.Put(4)
			q.PutAll([]int{5})
			q.PutAll(nil) // no-op
			for want := 1; want <= 5; want++ {
				got, ok := q.Get()
				if !ok || got != want {
					t.Fatalf("Get = %d,%v want %d", got, ok, want)
				}
			}
			if _, ok := q.Get(); ok {
				t.Fatal("queue not empty")
			}
			// Contiguity under concurrency: producers tag elements with
			// their batch, consumers must see each batch's elements in
			// order and adjacent.
			const producers, batches, batchLen = 4, 50, 8
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						batch := make([]int, batchLen)
						for i := range batch {
							batch[i] = (p*batches+b)*batchLen + i
						}
						q.PutAll(batch)
					}
				}(p)
			}
			wg.Wait()
			total := producers * batches * batchLen
			got := make([]int, 0, total)
			for {
				v, ok := q.Get()
				if !ok {
					break
				}
				got = append(got, v)
			}
			if len(got) != total {
				t.Fatalf("drained %d of %d", len(got), total)
			}
			for i := 0; i < total; i += batchLen {
				base := got[i]
				if base%batchLen != 0 {
					t.Fatalf("batch boundary at %d starts mid-batch (%d)", i, base)
				}
				for j := 1; j < batchLen; j++ {
					if got[i+j] != base+j {
						t.Fatalf("batch starting %d interleaved: element %d is %d", base, j, got[i+j])
					}
				}
			}
		})
	}
}
