package txds

import (
	"cmp"
	"slices"

	"kstm/internal/stm"
)

// DefaultBuckets is the paper's table size: a prime close to half the
// 16-bit value range, so the load factor at steady state is about 1 (§4.2).
const DefaultBuckets = 30031

// HashTable is a transactional hash table with external chaining. Each
// bucket is one transactional object holding the bucket's key list, so two
// transactions conflict exactly when they modify the same bucket — the
// conflict granularity the paper's transaction keys are designed around.
type HashTable struct {
	buckets []stm.Object // each holds *bucket; used in place
}

// bucket is a bucket version: an unordered key list. Versions are
// copy-on-write: clone deep-copies the slice so a transaction's private
// version never aliases a committed one.
type bucket struct {
	keys []uint32
}

func cloneBucket(v any) any {
	b := v.(*bucket)
	c := &bucket{keys: make([]uint32, len(b.keys))}
	copy(c.keys, b.keys)
	return c
}

// NewHashTable returns a table with the given bucket count; zero or
// negative uses DefaultBuckets.
func NewHashTable(buckets int) *HashTable {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	return &HashTable{buckets: stm.NewObjects(buckets, &bucket{}, cloneBucket)}
}

// Name implements IntSet.
func (t *HashTable) Name() string { return string(KindHashTable) }

// Buckets returns the bucket count.
func (t *HashTable) Buckets() int { return len(t.buckets) }

// Hash is the paper's hash function: the key modulo the bucket count. The
// executor uses this value (not the dictionary key) as the transaction key.
func (t *HashTable) Hash(key uint32) uint32 { return key % uint32(len(t.buckets)) }

// Insert implements IntSet.
func (t *HashTable) Insert(th *stm.Thread, key uint32) (bool, error) {
	obj := &t.buckets[t.Hash(key)]
	var added bool
	err := th.Atomic(func(tx *stm.Tx) error {
		added = false
		// Read first: an insert of a present key must not acquire the
		// bucket for writing (no write conflict for a logical no-op).
		v, err := tx.Read(obj)
		if err != nil {
			return err
		}
		if containsKey(v.(*bucket).keys, key) {
			return nil
		}
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		b := w.(*bucket)
		// Re-check on the written clone: the versions are identical by
		// construction, but keeping the check here makes the operation
		// correct even if the read is someday removed.
		if containsKey(b.keys, key) {
			return nil
		}
		b.keys = append(b.keys, key)
		added = true
		return nil
	})
	return added, err
}

// Delete implements IntSet.
func (t *HashTable) Delete(th *stm.Thread, key uint32) (bool, error) {
	obj := &t.buckets[t.Hash(key)]
	var removed bool
	err := th.Atomic(func(tx *stm.Tx) error {
		removed = false
		v, err := tx.Read(obj)
		if err != nil {
			return err
		}
		if !containsKey(v.(*bucket).keys, key) {
			return nil
		}
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		b := w.(*bucket)
		for i, k := range b.keys {
			if k == key {
				b.keys[i] = b.keys[len(b.keys)-1]
				b.keys = b.keys[:len(b.keys)-1]
				removed = true
				return nil
			}
		}
		return nil
	})
	return removed, err
}

// Contains implements IntSet.
func (t *HashTable) Contains(th *stm.Thread, key uint32) (bool, error) {
	obj := &t.buckets[t.Hash(key)]
	var found bool
	err := th.Atomic(func(tx *stm.Tx) error {
		v, err := tx.Read(obj)
		if err != nil {
			return err
		}
		found = containsKey(v.(*bucket).keys, key)
		return nil
	})
	return found, err
}

// Len returns the total number of keys, counted in one transaction. It is
// O(buckets) and intended for tests, not hot paths.
func (t *HashTable) Len(th *stm.Thread) (int, error) {
	var n int
	err := th.Atomic(func(tx *stm.Tx) error {
		n = 0
		for i := range t.buckets {
			obj := &t.buckets[i]
			v, err := tx.Read(obj)
			if err != nil {
				return err
			}
			n += len(v.(*bucket).keys)
			// A full-table scan would otherwise build a 30031-entry
			// read set and abort on any concurrent write; release as
			// we go, accepting a non-atomic count like `size()` in
			// java.util.concurrent collections.
			tx.Release(obj)
		}
		return nil
	})
	return n, err
}

// ExtractKeyRange removes and returns every DICTIONARY key in [lo, hi] —
// the space a sharded executor dispatches and migrates in, not the hash
// output. It visits only the buckets the range hashes to (see keyImage),
// filtering per bucket so aliased keys stay where they are.
func (t *HashTable) ExtractKeyRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	out, err := t.ExtractKeyRanges(th, []KeyRange{{Lo: lo, Hi: hi}})
	return out[0], err
}

// ExtractKeyRanges is the batch form of ExtractKeyRange: it removes every
// dictionary key falling in ANY of the given disjoint closed ranges,
// returning the removed keys per range (out[i] belongs to ranges[i]). It
// visits the union of the ranges' bucket images, each bucket once and in
// ascending order, one transaction per bucket — so a re-partition epoch
// costs the width of what moves, not the table size.
func (t *HashTable) ExtractKeyRanges(th *stm.Thread, ranges []KeyRange) ([][]uint32, error) {
	out := make([][]uint32, len(ranges))
	if len(ranges) == 0 {
		return out, nil
	}
	spans := make([]bucketSpan, 0, 2*len(ranges))
	for _, r := range ranges {
		spans = t.keyImage(spans, r.Lo, r.Hi)
	}
	rangeOf := func(k uint32) int {
		for i, r := range ranges {
			if k >= r.Lo && k <= r.Hi {
				return i
			}
		}
		return -1
	}
	marks := make([]int, len(ranges))
	for _, sp := range mergeSpans(spans) {
		for b := sp.lo; b <= sp.hi; b++ { // hi < len(buckets): no wrap
			obj := &t.buckets[b]
			for i := range out {
				marks[i] = len(out[i])
			}
			err := th.Atomic(func(tx *stm.Tx) error {
				// An aborted attempt must not leave its appends.
				for i := range out {
					out[i] = out[i][:marks[i]]
				}
				v, err := tx.Read(obj)
				if err != nil {
					return err
				}
				hit := false
				for _, k := range v.(*bucket).keys {
					if rangeOf(k) >= 0 {
						hit = true
						break
					}
				}
				if !hit {
					return nil // no write acquisition for untouched buckets
				}
				w, err := tx.Write(obj)
				if err != nil {
					return err
				}
				bk := w.(*bucket)
				kept := bk.keys[:0]
				for _, k := range bk.keys {
					if ri := rangeOf(k); ri >= 0 {
						out[ri] = append(out[ri], k)
					} else {
						kept = append(kept, k)
					}
				}
				bk.keys = kept
				return nil
			})
			if err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// bucketSpan is a closed run of bucket indices.
type bucketSpan struct{ lo, hi uint32 }

// keyImage appends the bucket runs that the dictionary keys in [lo, hi] hash
// to. Hash(k) = k mod n, so a range narrower than n occupies the circular
// run lo mod n … hi mod n — two spans when it wraps past the last bucket —
// and a wider one covers every bucket. An empty range (lo > hi) adds none.
// The width is computed in 64 bits, so hi = MaxUint32 cannot overflow it.
func (t *HashTable) keyImage(spans []bucketSpan, lo, hi uint32) []bucketSpan {
	if lo > hi {
		return spans
	}
	last := uint32(len(t.buckets) - 1)
	if uint64(hi)-uint64(lo) >= uint64(last) {
		return append(spans, bucketSpan{0, last})
	}
	a, b := t.Hash(lo), t.Hash(hi)
	if a <= b {
		return append(spans, bucketSpan{a, b})
	}
	return append(spans, bucketSpan{a, last}, bucketSpan{0, b})
}

// mergeSpans sorts spans in place and coalesces overlapping or adjacent
// runs, so every bucket of their union appears exactly once.
func mergeSpans(spans []bucketSpan) []bucketSpan {
	slices.SortFunc(spans, func(x, y bucketSpan) int { return cmp.Compare(x.lo, y.lo) })
	merged := spans[:0]
	for _, sp := range spans {
		if m := len(merged); m > 0 && sp.lo <= merged[m-1].hi+1 {
			merged[m-1].hi = max(merged[m-1].hi, sp.hi)
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// InstallKeys inserts the given keys (duplicates are no-ops): the install
// half of a dictionary-key-range move.
func (t *HashTable) InstallKeys(th *stm.Thread, keys []uint32) error {
	for _, k := range keys {
		if _, err := t.Insert(th, k); err != nil {
			return err
		}
	}
	return nil
}

func containsKey(keys []uint32, key uint32) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}
