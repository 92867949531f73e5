// Package queue provides the executor's worker queue and the transports the
// queue ablation compares it against:
//
//   - Ring: a bounded multi-producer, single-consumer ring (Vyukov's
//     per-slot sequence numbers, one consumer that needs no CAS). It is the
//     executor's worker queue: since each worker queue has one consumer, its
//     owner, and a depth bound, the ring is all the executor needs, and a
//     Put allocates nothing;
//   - "mscq": the lock-free Michael & Scott queue, matching the paper's use
//     of java.util.concurrent.ConcurrentLinkedQueue;
//   - "mutex": a mutex-protected ring buffer (the "obvious" alternative);
//   - "chan": a buffered Go channel.
//
// The three Queue kinds are unbounded from the producer's point of view (the
// channel variant grows by chaining), multi-producer and multi-consumer.
// They stay as transport fixtures: the ablation-queue experiment and the
// repo benchmark's queue probe time them, and PutAll stays as a measured
// transport primitive.
//
// Every kind is wake-free: the executor's event-driven dispatch
// (core/wake.go, DESIGN.md §5.4) keeps its park/wake hooks on the EXECUTOR
// side of every put, not inside the queue. What the executor relies on is the
// queue half of the wake handshake's Dekker argument. The worker registers as
// a waiter on its work event and then asks its ring whether a value is ready;
// a producer publishes its value and then loads the event's waiter count.
// Ready, like Get, reads the head slot's sequence, and TryPut's publish is a
// store to that sequence, so with Go's sequentially consistent atomics one of
// two things holds: the worker's check sees the published value, or the
// producer's load sees the waiter and wakes the worker. A slot claimed but not
// yet published makes the ring report nothing ready even when later slots are
// published; the worker then sleeps, and the claimant's own notify, which
// follows its publish, wakes it. The later publishers need not: the worker
// reaches their values only through the claimant's slot.
package queue

import (
	"fmt"
	"sync"

	"kstm/internal/mscq"
)

// Queue is an unbounded task transport, the interface the ablation's
// fixtures share. Implementations must be safe for concurrent use by
// multiple producers and consumers.
type Queue[T any] interface {
	// Put appends v.
	Put(v T)
	// PutAll appends vs in order as one operation, amortizing the cost to
	// one synchronization per batch where the implementation allows (one
	// CAS splice for mscq, one lock acquisition for the mutex ring — both
	// of which also keep the batch contiguous; the channel variant keeps
	// order but a concurrent fast-path Put may interleave).
	PutAll(vs []T)
	// Get removes the oldest element; ok is false if empty.
	Get() (v T, ok bool)
	// Len returns the approximate queue depth (for load statistics).
	Len() int
}

// Kind selects a queue implementation by name.
type Kind string

// Available queue kinds.
const (
	KindMSCQ  Kind = "mscq"
	KindMutex Kind = "mutex"
	KindChan  Kind = "chan"
)

// Kinds lists all implementations, M&S first (the paper's configuration).
func Kinds() []Kind { return []Kind{KindMSCQ, KindMutex, KindChan} }

// New constructs a queue of the given kind. It returns an error for unknown
// kinds so the CLI can report bad flags cleanly.
func New[T any](k Kind) (Queue[T], error) {
	switch k {
	case KindMSCQ:
		return NewMS[T](), nil
	case KindMutex:
		return NewMutex[T](), nil
	case KindChan:
		return NewChan[T](defaultChanCapacity), nil
	default:
		return nil, fmt.Errorf("queue: unknown kind %q (want mscq, mutex or chan)", k)
	}
}

// MS adapts mscq.Queue to the Queue interface.
type MS[T any] struct {
	q *mscq.Queue[T]
}

// NewMS returns a lock-free Michael & Scott backed queue.
func NewMS[T any]() *MS[T] { return &MS[T]{q: mscq.New[T]()} }

// Put implements Queue.
func (m *MS[T]) Put(v T) { m.q.Enqueue(v) }

// PutAll implements Queue: one node block, one CAS splice.
func (m *MS[T]) PutAll(vs []T) { m.q.EnqueueAll(vs) }

// Get implements Queue.
func (m *MS[T]) Get() (T, bool) { return m.q.Dequeue() }

// Len implements Queue.
func (m *MS[T]) Len() int { return m.q.Len() }

// Mutex is a mutex-protected growable ring buffer.
type Mutex[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int // index of oldest element
	n    int // number of elements
}

// NewMutex returns an empty mutex-protected queue.
func NewMutex[T any]() *Mutex[T] {
	return &Mutex[T]{buf: make([]T, 16)}
}

// Put implements Queue.
func (q *Mutex[T]) Put(v T) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	q.mu.Unlock()
}

// PutAll implements Queue: one lock acquisition for the whole batch.
func (q *Mutex[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	q.mu.Lock()
	for q.n+len(vs) > len(q.buf) {
		q.grow()
	}
	for _, v := range vs {
		q.buf[(q.head+q.n)%len(q.buf)] = v
		q.n++
	}
	q.mu.Unlock()
}

// grow doubles the buffer; caller holds the lock.
func (q *Mutex[T]) grow() {
	newBuf := make([]T, 2*len(q.buf))
	for i := 0; i < q.n; i++ {
		newBuf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = newBuf
	q.head = 0
}

// Get implements Queue.
func (q *Mutex[T]) Get() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // release reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Len implements Queue.
func (q *Mutex[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

const defaultChanCapacity = 1 << 16

// Chan wraps a buffered channel. Put falls back to a mutex-protected
// overflow list if the channel fills, keeping the producer non-blocking like
// the other implementations (the Queue interface is unbounded).
type Chan[T any] struct {
	ch       chan T
	mu       sync.Mutex
	overflow []T
}

// NewChan returns a channel-backed queue with the given buffer capacity.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity <= 0 {
		capacity = defaultChanCapacity
	}
	return &Chan[T]{ch: make(chan T, capacity)}
}

// Put implements Queue.
func (q *Chan[T]) Put(v T) {
	// Preserve FIFO: once anything has overflowed, keep appending to the
	// overflow list until it has drained back into the channel.
	q.mu.Lock()
	if len(q.overflow) > 0 {
		q.overflow = append(q.overflow, v)
		q.refillLocked()
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	select {
	case q.ch <- v:
	default:
		q.mu.Lock()
		q.overflow = append(q.overflow, v)
		q.mu.Unlock()
	}
}

// PutAll implements Queue: the batch is appended in order under one lock —
// through the overflow list when anything already waits there (preserving
// FIFO), the channel otherwise. A concurrent fast-path Put (which skips the
// lock when nothing has overflowed) may interleave between batch elements;
// per-producer FIFO still holds.
func (q *Chan[T]) PutAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	q.mu.Lock()
	if len(q.overflow) > 0 {
		q.overflow = append(q.overflow, vs...)
		q.refillLocked()
		q.mu.Unlock()
		return
	}
	for i, v := range vs {
		select {
		case q.ch <- v:
		default:
			q.overflow = append(q.overflow, vs[i:]...)
			q.mu.Unlock()
			return
		}
	}
	q.mu.Unlock()
}

// refillLocked moves overflow entries into the channel while space permits.
func (q *Chan[T]) refillLocked() {
	for len(q.overflow) > 0 {
		select {
		case q.ch <- q.overflow[0]:
			q.overflow = q.overflow[1:]
		default:
			return
		}
	}
}

// Get implements Queue.
func (q *Chan[T]) Get() (T, bool) {
	select {
	case v := <-q.ch:
		q.mu.Lock()
		q.refillLocked()
		q.mu.Unlock()
		return v, true
	default:
	}
	// Channel looked empty; check overflow.
	q.mu.Lock()
	q.refillLocked()
	q.mu.Unlock()
	select {
	case v := <-q.ch:
		return v, true
	default:
		var zero T
		return zero, false
	}
}

// Len implements Queue.
func (q *Chan[T]) Len() int {
	q.mu.Lock()
	n := len(q.overflow)
	q.mu.Unlock()
	return len(q.ch) + n
}
