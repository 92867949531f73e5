package queue

import (
	"sync/atomic"
	"unsafe"
)

// Ring is a bounded multi-producer, single-consumer FIFO: Vyukov's bounded
// queue with a sequence number per slot, specialised to one consumer that
// needs no CAS. It is the executor's worker queue — its capacity is the
// depth bound, so a refused TryPut is the backpressure signal — and it
// allocates nothing after NewRing.
//
// Tickets are positions in an unbounded sequence; with capacity n, ticket p
// lives in slot p mod n. A slot's sequence says what the slot holds: 2p
// while it is free for ticket p, 2p+1 once ticket p's value is published,
// 2(p+n) once the consumer has taken it. (Vyukov counts in steps of one,
// which makes "published for p" equal "free for p+1" and needs n ≥ 2; steps
// of two keep a depth-1 ring exact.) The slot stores that sequence minus
// twice its own index, so the zero slot array NewRing allocates already
// reads "slot i is free for ticket i" and construction runs no init loop.
//
// TryPut claims ticket tail with one CAS, writes the value and publishes it
// with a sequence store. Get reads the head slot's sequence, takes the
// value, frees the slot and advances head with plain atomic stores. A
// producer that has claimed a ticket but not yet published it makes Get
// report empty until it does, even if later tickets are already published;
// its own publish is followed by the wake that delivers it (package doc).
type Ring[T any] struct {
	buf  []ringSlot[T]
	n    uint64 // len(buf)
	mask uint64 // n-1 when n is a power of two, else 0 (index by modulo)
	_    [64 - 24 - 16]byte
	// tail is the next ticket a producer claims; producers CAS it.
	tail atomic.Uint64
	_    [56]byte
	// head is the next ticket the consumer takes; only the consumer stores
	// it, and Len reads it.
	head atomic.Uint64
	_    [56]byte
}

// ringSlot is one ring cell. For the executor's 56-byte envelope it is 64
// bytes: one cache line per queued task.
type ringSlot[T any] struct {
	seq atomic.Uint64 // the slot's sequence minus twice its index
	val T
}

// NewRing returns an empty ring holding at most n values; n must be
// positive.
func NewRing[T any](n int) *Ring[T] {
	if n <= 0 {
		panic("queue: NewRing capacity must be positive")
	}
	r := &Ring[T]{buf: make([]ringSlot[T], n), n: uint64(n)}
	if n&(n-1) == 0 {
		r.mask = uint64(n) - 1
	}
	return r
}

// SlotSize reports the bytes one unit of a Ring[T]'s capacity preallocates.
func SlotSize[T any]() uintptr { return unsafe.Sizeof(ringSlot[T]{}) }

// slot returns ticket p's cell and that cell's index.
func (r *Ring[T]) slot(p uint64) (*ringSlot[T], uint64) {
	var i uint64
	if r.mask != 0 {
		i = p & r.mask
	} else {
		i = p % r.n
	}
	return &r.buf[i], i
}

// TryPut appends v, or reports false when the ring is full. Safe for any
// number of concurrent producers.
func (r *Ring[T]) TryPut(v T) bool {
	p := r.tail.Load()
	for {
		s, i := r.slot(p)
		switch d := int64(s.seq.Load() + 2*i - 2*p); {
		case d == 0:
			// Free for ticket p: claim it, then write and publish.
			if r.tail.CompareAndSwap(p, p+1) {
				s.val = v
				s.seq.Store(2*p + 1 - 2*i)
				return true
			}
			p = r.tail.Load()
		case d < 0:
			// The slot still holds ticket p-n, unconsumed (or claimed and
			// not yet published): every slot is taken.
			return false
		default:
			// Another producer claimed ticket p since our tail load.
			p = r.tail.Load()
		}
	}
}

// Get removes the oldest value; ok is false if the ring is empty or its
// oldest ticket is claimed but not yet published. Only one goroutine at a
// time may call Get: the ring's single consumer.
func (r *Ring[T]) Get() (v T, ok bool) {
	p := r.head.Load()
	s, i := r.slot(p)
	if s.seq.Load()+2*i != 2*p+1 {
		return v, false
	}
	v = s.val
	var zero T
	s.val = zero // drop the references the value holds
	// Free the slot before advancing head: a producer that sees the new
	// head (Len, Full) then finds the slot free too.
	s.seq.Store(2*(p+r.n) - 2*i)
	r.head.Store(p + 1)
	return v, true
}

// Len returns the number of claimed tickets not yet taken, within [0, n]:
// tail − head, counting claimed-but-unpublished values.
func (r *Ring[T]) Len() int {
	head := r.head.Load()
	n := r.tail.Load() - head // tail read after head: never below it
	if n > r.n {
		n = r.n
	}
	return int(n)
}

// Full reports whether every slot is claimed. A false result read after a
// consumer's Get observes that Get's freed slot.
func (r *Ring[T]) Full() bool { return uint64(r.Len()) == r.n }
