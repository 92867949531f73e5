// Package txds implements the paper's three benchmark data structures —
// chained hash table, red-black tree and sorted linked list (§4.2) — plus
// the constant-key stack of §3.1, all as concurrent dictionaries over the
// DSTM-style STM in internal/stm.
//
// Each structure implements IntSet, the abstract dictionary of the
// microbenchmarks: insertions and deletions of 16-bit search keys (lookups
// exist for completeness but the paper's workloads omit them, since lookups
// do not conflict).
package txds

import (
	"fmt"

	"kstm/internal/stm"
)

// IntSet is the abstract dictionary interface shared by all benchmark
// structures. Operations run as complete transactions on the caller's STM
// thread, retrying internally until they commit; they return the operation's
// logical result.
type IntSet interface {
	// Insert adds key; it reports whether the key was absent.
	Insert(th *stm.Thread, key uint32) (added bool, err error)
	// Delete removes key; it reports whether the key was present.
	Delete(th *stm.Thread, key uint32) (removed bool, err error)
	// Contains reports whether key is present.
	Contains(th *stm.Thread, key uint32) (found bool, err error)
	// Name identifies the structure in reports.
	Name() string
}

// RangeStore is the shard-migration face of an ordered dictionary: extract
// every key in a dictionary-key range, install a batch of keys. The tree and
// the lists implement it; the hash table moves keys by dictionary-key range
// through ExtractKeyRanges, which visits only the ranges' bucket images.
//
// ExtractRange runs one collection pass plus per-key deletes; callers that
// need the extracted range to stay coherent must quiesce operations on it
// first — the executor's migration fence does exactly that.
type RangeStore interface {
	// ExtractRange removes and returns every key in the closed range
	// [lo, hi]. Order is unspecified.
	ExtractRange(th *stm.Thread, lo, hi uint32) ([]uint32, error)
	// InstallKeys inserts the given keys (duplicates are no-ops).
	InstallKeys(th *stm.Thread, keys []uint32) error
}

// KeyRange is one closed dictionary-key interval for batch extraction
// (HashTable.ExtractKeyRanges).
type KeyRange struct{ Lo, Hi uint32 }

// Kind names a benchmark data structure.
type Kind string

// The paper's three benchmark structures.
const (
	KindHashTable  Kind = "hashtable"
	KindRBTree     Kind = "rbtree"
	KindSortedList Kind = "sortedlist"
)

// Kinds lists the benchmark structures in the paper's order.
func Kinds() []Kind { return []Kind{KindHashTable, KindRBTree, KindSortedList} }

// New constructs a benchmark structure by kind. KindSkipList is an
// extension beyond the paper's three.
func New(k Kind) (IntSet, error) {
	switch k {
	case KindHashTable:
		return NewHashTable(DefaultBuckets), nil
	case KindRBTree:
		return NewRBTree(), nil
	case KindSortedList:
		return NewSortedList(), nil
	case KindSkipList:
		return NewSkipList(), nil
	default:
		return nil, fmt.Errorf("txds: unknown data structure %q (want hashtable, rbtree, sortedlist or skiplist)", k)
	}
}
