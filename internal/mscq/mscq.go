// Package mscq implements the Michael & Scott non-blocking concurrent FIFO
// queue (PODC'96), the algorithm behind java.util.concurrent.
// ConcurrentLinkedQueue that the paper uses for its executor task queues
// (§4.1).
//
// The queue is multi-producer multi-consumer and lock-free: enqueue and
// dequeue each complete in a bounded number of steps unless another thread
// makes progress. Go's garbage collector plays the role of the original
// algorithm's counted pointers: nodes are never reused while reachable, so
// the ABA problem cannot arise.
//
// One step is ordered differently from the paper. Michael & Scott read the
// dequeued value BEFORE the head CAS, because a node that loses the race may
// be recycled under them. Here a node cannot be recycled, so Dequeue reads
// (and clears) next.value only AFTER winning the CAS: exactly one dequeuer
// ever touches a node's value, ordered after the enqueuer's write by the
// next-pointer publication, and losers never load a field the winner is
// zeroing.
package mscq

import "sync/atomic"

type node[T any] struct {
	value T
	next  atomic.Pointer[node[T]]
}

// Queue is a lock-free FIFO. The zero value is not ready to use; call New.
type Queue[T any] struct {
	head atomic.Pointer[node[T]] // sentinel; head.next is the first element
	tail atomic.Pointer[node[T]] // last or second-to-last node
	size atomic.Int64            // approximate size, maintained for stats
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	sentinel := &node[T]{}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// Enqueue appends v to the tail of the queue.
func (q *Queue[T]) Enqueue(v T) {
	n := &node[T]{value: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us; re-read
		}
		if next != nil {
			// Tail is lagging; help advance it and retry.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			// Linearization point. Swing tail; failure is benign
			// (someone else helped).
			q.tail.CompareAndSwap(tail, n)
			q.size.Add(1)
			return
		}
	}
}

// EnqueueAll appends vs in order as one splice: the nodes are allocated in a
// single block and linked locally, then the whole chain is attached with one
// successful CAS on the last node's next pointer — the batch is contiguous
// in the queue and the per-element cost drops to a copy.
//
// The tail pointer may lag behind the chain's end until the trailing CAS (or
// a helping operation) advances it; both Enqueue and Dequeue already walk a
// lagging tail forward one step per retry, so the M&S invariant "tail is
// reachable from head and at or behind the last node" is preserved.
func (q *Queue[T]) EnqueueAll(vs []T) {
	if len(vs) == 0 {
		return
	}
	nodes := make([]node[T], len(vs))
	for i := range vs {
		nodes[i].value = vs[i]
		if i > 0 {
			nodes[i-1].next.Store(&nodes[i])
		}
	}
	first, last := &nodes[0], &nodes[len(vs)-1]
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue
		}
		if next != nil {
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, first) {
			// Linearization point for the whole batch.
			q.tail.CompareAndSwap(tail, last)
			q.size.Add(int64(len(vs)))
			return
		}
	}
}

// Dequeue removes and returns the head element. ok is false if the queue
// was observed empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if head == tail {
			if next == nil {
				return v, false // empty
			}
			// Tail lagging behind an in-flight enqueue; help.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			q.size.Add(-1)
			// Winner only (see the package doc): take the value, then clear
			// the field so the dequeued payload is not kept alive by the new
			// sentinel.
			value := next.value
			var zero T
			next.value = zero
			return value, true
		}
	}
}

// Empty reports whether the queue was observed empty. Like all size queries
// on concurrent queues, the answer may be stale by the time it returns.
func (q *Queue[T]) Empty() bool {
	head := q.head.Load()
	return head.next.Load() == nil
}

// Len returns the approximate number of elements. The counter is maintained
// with relaxed ordering relative to the queue operations themselves, so it
// may transiently disagree with the structural state; it is intended for
// load statistics (queue-depth sampling), not for synchronization.
func (q *Queue[T]) Len() int {
	n := q.size.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
