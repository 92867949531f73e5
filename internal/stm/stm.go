// Package stm is a Go reimplementation of the Dynamic Software Transactional
// Memory (DSTM) system of Herlihy, Luchangco, Moir & Scherer (PODC'03) that
// the paper builds its executor on (§4.1).
//
// DSTM is object-based and obstruction-free. Every transactional object
// holds an atomic pointer to a Locator — a triple (writer, oldVersion,
// newVersion). A transaction acquires an object for writing by installing,
// with a single compare-and-swap, a fresh locator whose old version is the
// currently committed one and whose new version is a private clone. Commit
// is one compare-and-swap of the transaction's status word from ACTIVE to
// COMMITTED, which atomically makes every installed new version current.
// Reads are invisible: the transaction records (object, version) pairs and
// validates them on every subsequent open and at commit, so a transaction
// can never observe an inconsistent snapshot without finding out before it
// acts on it. Validation walks the read set only when the STM's commit
// counter has moved since the transaction's last clean walk (Spear et al.,
// DISC'06); see Tx.validate and DESIGN.md §1.1.
//
// Conflicts between active transactions are arbitrated by a pluggable
// contention manager (Scherer & Scott, PODC'05); the paper's experiments use
// Polka, which combines randomized exponential backoff with priority
// accumulation.
//
// Versions stored in objects must be pointers (the implementation compares
// versions by interface identity); the typed Box[T] wrapper enforces this.
package stm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Transaction status values. A transaction's status word is its single
// point of atomicity: the CAS ACTIVE→COMMITTED commits every object the
// transaction has acquired at once.
const (
	statusActive uint32 = iota
	statusCommitted
	statusAborted
)

// ErrAborted is returned by Read, Write and Commit when the transaction has
// been aborted, either by a competitor (through the contention manager) or
// by failed validation. Callers inside an Atomic block should propagate it
// unchanged so the block retries.
var ErrAborted = errors.New("stm: transaction aborted")

// ErrNotActive is returned when a transaction is used after it committed.
// It indicates a programming error, not a transient condition. (An aborted
// transaction's operations return ErrAborted instead: aborts can be inflicted
// by enemy transactions at any instant, so they must stay retryable.)
var ErrNotActive = errors.New("stm: transaction no longer active")

// STM owns global configuration and statistics. All transactions created
// from the same STM instance may share objects.
type STM struct {
	// commits counts commit attempts of transactions that acquired at
	// least one object. Every open loads it, so it has a cache line to
	// itself, ahead of the striped statistics.
	commits  commitCounter
	stats    Stats
	newCM    func() ContentionManager
	clock    atomic.Int64 // logical timestamps for timestamp-based managers
	threadID atomic.Int64
}

// commitCounter is the STM's commit counter, alone on its cache line.
//
//kstmvet:padalign
type commitCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// Option configures an STM instance.
type Option func(*STM)

// WithContentionManager selects the contention-manager factory; each worker
// thread gets a private instance, as in DSTM. The default is Polka, the
// manager used for all of the paper's experiments.
func WithContentionManager(factory func() ContentionManager) Option {
	return func(s *STM) { s.newCM = factory }
}

// New returns an STM instance.
func New(opts ...Option) *STM {
	s := &STM{newCM: NewPolka}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns a snapshot of the global counters.
func (s *STM) Stats() StatsSnapshot { return s.stats.snapshot() }

// ResetStats zeroes the global counters (between experiment runs).
func (s *STM) ResetStats() { s.stats.reset() }

// A Thread is the per-worker handle from which transactions are begun. It
// owns a private contention-manager instance, mirroring DSTM's thread-local
// managers, and the state one attempt needs that must not outlive it: the
// read-set buffer and the not-yet-folded statistics. A Thread must not be
// used concurrently from multiple goroutines; create one Thread per worker.
type Thread struct {
	s  *STM
	id int64
	cm ContentionManager
	// reads is the idle read-set buffer: empty, cleared, at most
	// maxKeptReads long. Begin takes it (leaving nil) and finish hands it
	// back, so two live transactions of one thread, or one abandoned
	// without Commit or Abort, never share a backing array.
	reads []readEntry
	// spare is a finished transaction shell that was never installed in a
	// locator, so no other thread can hold it; Atomic reuses it.
	spare *Tx
	// pending counts this thread's events since its last finished
	// attempt; finish folds them into the thread's statistics stripe.
	pending StatsSnapshot
}

// maxKeptReads bounds the read-set buffer an idle Thread keeps. A scan such
// as RBTree.Keys reads the whole structure; its buffer goes to the collector
// instead of staying pinned to the thread.
const maxKeptReads = 4096

// NewThread returns a worker handle with its own contention manager.
func (s *STM) NewThread() *Thread {
	return &Thread{s: s, id: s.threadID.Add(1), cm: s.newCM()}
}

// ID returns the thread's unique identifier.
func (t *Thread) ID() int64 { return t.id }

// ManagerName reports the contention manager driving this thread.
func (t *Thread) ManagerName() string { return t.cm.Name() }

// Tx is one transaction attempt. It is created by Thread.Begin and used by
// exactly one goroutine; other threads interact with it only through its
// atomic status and priority words. Locators keep their writer's Tx
// reachable for as long as they are current, so a Tx holds nothing once it
// has finished: its read set is the thread's buffer, on loan.
type Tx struct {
	thread *Thread
	status atomic.Uint32

	// priority is read by enemy threads' contention managers (Karma,
	// Polka, Eruption), hence atomic.
	priority atomic.Int64
	// waiting is set while the transaction spins on a conflict; the
	// Greedy manager consults it.
	waiting atomic.Bool
	// timestamp orders transactions for Timestamp/Greedy. Assigned at
	// first Begin of a task and retained across retries so that old
	// transactions eventually win.
	timestamp int64

	reads  []readEntry
	writes int
	// snap is a value of the commit counter loaded before a walk of the
	// read set that found every entry current and none owned by another
	// active transaction (or before the first read). While the counter
	// still equals snap, every entry is still current.
	snap uint64
}

type readEntry struct {
	obj *Object
	ver any
}

// committedSentinel is the writer of every freshly created object's locator:
// a permanently committed transaction.
var committedSentinel = func() *Tx {
	tx := &Tx{}
	tx.status.Store(statusCommitted)
	return tx
}()

// Begin starts a new transaction on this thread.
func (t *Thread) Begin() *Tx {
	return t.begin(t.s.clock.Add(1))
}

// begin starts an attempt with the given task timestamp. A retry passes its
// predecessor's, so that timestamp-ordered managers guarantee progress for
// long-suffering tasks.
func (t *Thread) begin(timestamp int64) *Tx {
	tx := t.spare
	if tx != nil {
		t.spare = nil
		tx.status.Store(statusActive)
		tx.priority.Store(0)
	} else {
		tx = &Tx{thread: t}
	}
	tx.timestamp = timestamp
	tx.reads, t.reads = t.reads, nil
	tx.snap = t.s.commits.n.Load()
	t.pending.Begins++
	t.cm.BeginTransaction(tx)
	return tx
}

// finish ends the attempt on its own thread: the read set goes back to the
// thread, cleared, and the thread's pending counts are folded into the
// shared statistics. It runs on every path out of Commit and Abort and may
// run more than once.
func (tx *Tx) finish() {
	t := tx.thread
	if reads := tx.reads; reads != nil {
		tx.reads = nil
		if cap(reads) <= maxKeptReads {
			clear(reads)
			t.reads = reads[:0]
		}
	}
	t.s.stats.fold(t.id, &t.pending)
}

// Status helpers ------------------------------------------------------------

// Active reports whether the transaction can still read, write and commit.
func (tx *Tx) Active() bool { return tx.status.Load() == statusActive }

// Committed reports whether the transaction committed.
func (tx *Tx) Committed() bool { return tx.status.Load() == statusCommitted }

// Aborted reports whether the transaction aborted.
func (tx *Tx) Aborted() bool { return tx.status.Load() == statusAborted }

// Priority returns the transaction's contention-manager priority. Enemy
// threads may call this concurrently.
func (tx *Tx) Priority() int64 { return tx.priority.Load() }

// Timestamp returns the logical begin time of the task this transaction
// belongs to (stable across retries).
func (tx *Tx) Timestamp() int64 { return tx.timestamp }

// Waiting reports whether the transaction is currently spinning on a
// conflict (used by the Greedy manager).
func (tx *Tx) Waiting() bool { return tx.waiting.Load() }

// ThreadID returns the owning thread's ID; contention managers use it to
// recognize repeat adversaries across transaction retries.
func (tx *Tx) ThreadID() int64 {
	if tx.thread == nil {
		return 0
	}
	return tx.thread.id
}

// ReadSetSize returns the number of recorded invisible reads; zero once the
// transaction has finished.
func (tx *Tx) ReadSetSize() int { return len(tx.reads) }

// WriteSetSize returns the number of objects acquired for writing.
func (tx *Tx) WriteSetSize() int { return tx.writes }

// abortBy attempts to abort the transaction on behalf of an enemy. It
// reports whether the status transitioned (false if the target already
// committed or aborted).
func (tx *Tx) abortBy() bool {
	return tx.status.CompareAndSwap(statusActive, statusAborted)
}

// Abort aborts the transaction from its own thread. Aborting a completed
// transaction is a no-op.
func (tx *Tx) Abort() {
	if tx.status.CompareAndSwap(statusActive, statusAborted) {
		tx.thread.pending.SelfAborts++
		tx.thread.cm.TransactionAborted(tx)
	}
	tx.finish()
}

// Commit attempts to atomically commit every write this transaction has
// made. It returns nil on success and ErrAborted if the transaction lost a
// conflict or failed validation.
func (tx *Tx) Commit() error {
	t := tx.thread
	if tx.status.Load() != statusActive {
		t.pending.EnemyAborts++
		t.cm.TransactionAborted(tx)
		tx.finish()
		return ErrAborted
	}
	// A transaction that acquired objects bumps the counter before its
	// status CAS, so a reader that loads one of its new versions then
	// loads a counter that includes the bump. validate gets the value
	// before the bump: the question is whether others have committed
	// since the last clean walk.
	var c uint64
	if tx.writes > 0 {
		c = t.s.commits.n.Add(1) - 1
	} else {
		c = t.s.commits.n.Load()
	}
	if !tx.validate(c) {
		tx.failValidation()
		return ErrAborted
	}
	if !tx.status.CompareAndSwap(statusActive, statusCommitted) {
		// An enemy aborted us between validation and the CAS.
		t.pending.EnemyAborts++
		t.cm.TransactionAborted(tx)
		tx.finish()
		return ErrAborted
	}
	t.pending.Commits++
	t.cm.TransactionCommitted(tx)
	tx.finish()
	return nil
}

// usable gates Read/Write on the transaction's status. An aborted
// transaction returns ErrAborted — the abort may have come from an enemy
// between two opens, which is a transient loss the Atomic retry loop must
// absorb, not a programming error (returning ErrNotActive here was the
// long-standing "stm: transaction no longer active" flake under concurrent
// churn). Only use after commit reports ErrNotActive.
func (tx *Tx) usable() error {
	switch tx.status.Load() {
	case statusActive:
		return nil
	case statusAborted:
		return ErrAborted
	default:
		return ErrNotActive
	}
}

// validate reports whether every recorded read is still the object's
// committed version and the transaction is still active. DSTM asks this on
// every open and at commit, which gives transactions a consistent view at
// all times. c is the commit counter, loaded after the version the caller
// just opened: if it still equals snap, no transaction that acquired an
// object has reached its commit point since the last clean walk, so the
// answer is that walk's and the read set is not walked again.
func (tx *Tx) validate(c uint64) bool {
	if c != tx.snap && !tx.walk(c) {
		return false
	}
	return tx.status.Load() == statusActive
}

// walk checks every recorded read against the object's currently committed
// version. If all are current it records c — loaded before the walk — as
// the new snap, unless some read object is owned by another transaction
// that is still active: that writer may already have bumped the counter, so
// that c includes its bump, and its status CAS, which bumps nothing, would
// then change the object under a snap that says nothing changed.
func (tx *Tx) walk(c uint64) bool {
	clean := true
	for _, r := range tx.reads {
		loc := r.obj.locator()
		cur := loc.oldVal
		switch loc.writer.status.Load() {
		case statusCommitted:
			cur = loc.newVal
		case statusActive:
			clean = clean && loc.writer == tx
		}
		if cur != r.ver {
			return false
		}
	}
	if clean {
		tx.snap = c
	}
	return true
}

// Validate exposes validation for callers that want to fail fast inside
// long transactions (used by the sorted-list traversal). It always walks.
func (tx *Tx) Validate() bool {
	return tx.walk(tx.thread.s.commits.n.Load()) && tx.status.Load() == statusActive
}

// Release drops the object from tx's read set — DSTM's "early release"
// (Herlihy et al. §2). A linked-list traversal releases nodes it has passed
// so that its read set stays O(1) and concurrent updates to distant parts of
// the list no longer conflict with it. The caller asserts that dropping the
// read cannot violate the transaction's correctness; misuse can break
// serializability, exactly as in DSTM.
func (tx *Tx) Release(o *Object) {
	kept := tx.reads[:0]
	for _, r := range tx.reads {
		if r.obj != o {
			kept = append(kept, r)
		}
	}
	// Zero the tail so released entries do not pin versions in memory.
	clear(tx.reads[len(kept):])
	tx.reads = kept
}

// Object is a transactional object: an atomic pointer to a locator plus the
// clone function used for copy-on-write. Versions must be pointers; the
// clone function must return a copy that the new transaction may mutate
// freely (deep enough that committed versions are never written again).
type Object struct {
	_     noCopy
	clone func(any) any
	// loc is the current *locator, accessed atomically once the object is
	// shared. It is not an atomic.Pointer so that NewObjects can fill a
	// slab with plain stores first: an atomic store per object was most of
	// the time a table took to build.
	loc unsafe.Pointer
}

// noCopy makes go vet's copylocks check report a copied Object: slab
// objects are shared by address, and a copy would fork the locator word.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

func (o *Object) locator() *locator { return (*locator)(atomic.LoadPointer(&o.loc)) }

// install replaces the locator old with next, if old is still current.
func (o *Object) install(old, next *locator) bool {
	return atomic.CompareAndSwapPointer(&o.loc, unsafe.Pointer(old), unsafe.Pointer(next))
}

type locator struct {
	writer *Tx
	oldVal any
	newVal any
}

// NewObject creates a transactional object with the given initial version
// and clone function. initial must be a pointer value; it becomes the
// committed version.
func NewObject(initial any, clone func(any) any) *Object {
	if clone == nil {
		panic("stm: NewObject requires a clone function")
	}
	o := &Object{clone: clone}
	o.loc = unsafe.Pointer(&locator{writer: committedSentinel, newVal: initial})
	return o
}

// NewObjects creates n transactional objects that all start at the same
// initial version, in two allocations whatever n is: one slab of objects and
// one first locator they share. Sharing is sound because committed versions
// and installed locators are never written again, and an object never
// returns to its first locator, so neither validation (which compares one
// object's current version with the one read from it) nor the acquiring CAS
// can confuse two objects. initial must be a pointer, as for NewObject; the
// objects are used in place, by the address of their slab element.
func NewObjects(n int, initial any, clone func(any) any) []Object {
	if clone == nil {
		panic("stm: NewObjects requires a clone function")
	}
	first := &locator{writer: committedSentinel, newVal: initial}
	objs := make([]Object, n)
	for i := range objs {
		objs[i].clone = clone
		objs[i].loc = unsafe.Pointer(first)
	}
	return objs
}

// Read opens the object for reading and returns the version visible to tx.
// The read is invisible to other transactions; it is recorded and validated
// on every later open and at commit.
func (tx *Tx) Read(o *Object) (any, error) {
	if err := tx.usable(); err != nil {
		return nil, err
	}
	tx.thread.pending.Reads++
	for {
		loc := o.locator()
		w := loc.writer
		if w == tx {
			// Read our own uncommitted write.
			return loc.newVal, nil
		}
		var cur any
		switch w.status.Load() {
		case statusCommitted:
			cur = loc.newVal
		case statusAborted:
			cur = loc.oldVal
		default:
			// Conflict with an active writer; arbitrate.
			if !tx.resolve(w) {
				return nil, ErrAborted
			}
			continue
		}
		tx.reads = append(tx.reads, readEntry{obj: o, ver: cur})
		// Version first, counter second: a commit that made cur stale
		// bumped the counter before its status CAS, so it is either
		// visible in this load or came after the version load.
		if !tx.validate(tx.thread.s.commits.n.Load()) {
			tx.failValidation()
			return nil, ErrAborted
		}
		return cur, nil
	}
}

// Write opens the object for writing and returns tx's private, mutable
// clone of the current version. The clone becomes the committed version if
// and when tx commits.
func (tx *Tx) Write(o *Object) (any, error) {
	if err := tx.usable(); err != nil {
		return nil, err
	}
	tx.thread.pending.Writes++
	for {
		loc := o.locator()
		w := loc.writer
		if w == tx {
			// Already acquired; return the same clone.
			return loc.newVal, nil
		}
		var cur any
		switch w.status.Load() {
		case statusCommitted:
			cur = loc.newVal
		case statusAborted:
			cur = loc.oldVal
		default:
			if !tx.resolve(w) {
				return nil, ErrAborted
			}
			continue
		}
		newLoc := &locator{writer: tx, oldVal: cur, newVal: o.clone(cur)}
		if o.install(loc, newLoc) {
			tx.writes++
			tx.priority.Add(1) // priority accumulation (Karma/Polka)
			tx.thread.cm.OpenSucceeded(tx)
			if !tx.validate(tx.thread.s.commits.n.Load()) {
				tx.failValidation()
				return nil, ErrAborted
			}
			return newLoc.newVal, nil
		}
		// CAS lost to a competitor; loop and re-arbitrate.
	}
}

// failValidation aborts tx after an open found its read set stale.
func (tx *Tx) failValidation() {
	tx.thread.pending.ValidationFails++
	tx.Abort()
}

// resolve arbitrates a conflict between tx and the active enemy writer w.
// It returns false if tx itself has been aborted and should give up.
func (tx *Tx) resolve(w *Tx) bool {
	tx.thread.pending.Conflicts++
	tx.waiting.Store(true)
	decision := tx.thread.cm.ResolveConflict(tx, w)
	tx.waiting.Store(false)
	switch decision {
	case AbortOther:
		if w.abortBy() {
			tx.thread.pending.EnemyAborts++
		}
		return true
	case AbortSelf:
		tx.Abort()
		return false
	default: // Wait: the manager already delayed us; just retry.
		return tx.status.Load() == statusActive
	}
}

// Atomic runs fn inside a transaction, retrying on aborts until it commits.
// A non-ErrAborted error from fn aborts the transaction and is returned to
// the caller unchanged. fn must propagate errors from Read/Write so the
// retry loop can observe them; it may be re-executed many times and must not
// have side effects outside the STM. The *Tx is valid only inside fn.
func (t *Thread) Atomic(fn func(tx *Tx) error) error {
	tx := t.Begin()
	for {
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			tx.Abort() // no-op if an enemy already aborted us
		}
		if tx.writes == 0 {
			// Never installed in a locator: nobody else can reach it.
			t.spare = tx
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		t.pending.Retries++
		tx = t.begin(tx.timestamp)
	}
}

// Box is a typed wrapper over Object for plain values: it stores *T versions
// and clones by shallow copy. Use it for scalars and for node structs whose
// fields are themselves immutable or transactional references; use NewObject
// with a deep clone for versions containing slices or maps.
type Box[T any] struct {
	o *Object
}

// NewBox creates a Box holding a copy of initial.
func NewBox[T any](initial T) Box[T] {
	v := initial
	return Box[T]{o: NewObject(&v, func(x any) any {
		c := *x.(*T)
		return &c
	})}
}

// Read returns the version of the boxed value visible to tx. The caller
// must not mutate it.
func (b Box[T]) Read(tx *Tx) (*T, error) {
	v, err := tx.Read(b.o)
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}

// Write returns tx's private clone of the boxed value; mutations become
// visible atomically when tx commits.
func (b Box[T]) Write(tx *Tx) (*T, error) {
	v, err := tx.Write(b.o)
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}

// Object returns the underlying transactional object (for tests and stats).
func (b Box[T]) Object() *Object { return b.o }

// String renders a short debugging description of a transaction.
func (tx *Tx) String() string {
	st := "active"
	switch tx.status.Load() {
	case statusCommitted:
		st = "committed"
	case statusAborted:
		st = "aborted"
	}
	return fmt.Sprintf("tx(thread=%d ts=%d %s reads=%d writes=%d)",
		tx.ThreadID(), tx.timestamp, st, len(tx.reads), tx.writes)
}
