package stm

import (
	"testing"
	"unsafe"
)

// sameArray reports whether two read sets share a backing array.
func sameArray(a, b []readEntry) bool {
	return cap(a) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestReadSetBufferNeverShared: the thread's read-set buffer belongs to at
// most one live transaction. Two live Begins on one Thread, or a Tx
// abandoned without Commit or Abort, must not end up appending into the
// array another transaction validates.
func TestReadSetBufferNeverShared(t *testing.T) {
	th := New().NewThread()
	a, b := NewBox(1), NewBox(2)

	// Give the thread a buffer to hand out.
	warm := th.Begin()
	if _, err := a.Read(warm); err != nil {
		t.Fatal(err)
	}
	if err := warm.Commit(); err != nil {
		t.Fatal(err)
	}
	if th.reads == nil || len(th.reads) != 0 {
		t.Fatalf("finished transaction left the thread reads=%v, want an empty buffer", th.reads)
	}

	tx1 := th.Begin()
	if th.reads != nil {
		t.Fatal("Begin left the buffer with the thread")
	}
	tx2 := th.Begin() // second live transaction on the same thread
	if _, err := a.Read(tx1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(tx2); err != nil {
		t.Fatal(err)
	}
	if sameArray(tx1.reads, tx2.reads) {
		t.Fatal("two live transactions share a read-set array")
	}
	if tx1.reads[0].obj != a.Object() || tx2.reads[0].obj != b.Object() {
		t.Fatal("read sets were mixed up")
	}

	// tx1 is abandoned: never committed, never aborted. Later transactions
	// must not get its array.
	tx1Reads := tx1.reads
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3 := th.Begin()
	if _, err := b.Read(tx3); err != nil {
		t.Fatal(err)
	}
	if sameArray(tx3.reads, tx1Reads) {
		t.Fatal("a new transaction took an abandoned transaction's read-set array")
	}
	if tx1.ReadSetSize() != 1 || tx1.reads[0].obj != a.Object() {
		t.Fatal("the abandoned transaction's read set was disturbed")
	}
	tx3.Abort()

	// A finished transaction holds nothing, and what it handed back is
	// cleared: a retained entry would pin a version.
	if tx2.reads != nil || tx3.reads != nil || tx3.ReadSetSize() != 0 {
		t.Fatal("a finished transaction still holds a read set")
	}
	for _, r := range th.reads[:cap(th.reads)] {
		if r != (readEntry{}) {
			t.Fatal("the idle buffer still references an object")
		}
	}
}

// TestReadSetBufferBounded: a transaction that read more than maxKeptReads
// objects does not leave its buffer pinned to the idle thread.
func TestReadSetBufferBounded(t *testing.T) {
	th := New().NewThread()
	objs := NewObjects(2*maxKeptReads, new(int), func(v any) any { c := *v.(*int); return &c })
	if err := th.Atomic(func(tx *Tx) error {
		for i := range objs {
			if _, err := tx.Read(&objs[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if cap(th.reads) > maxKeptReads {
		t.Fatalf("idle thread keeps a %d-entry read-set buffer, want <= %d", cap(th.reads), maxKeptReads)
	}
}
