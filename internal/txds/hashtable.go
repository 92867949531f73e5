package txds

import (
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

// ExtractRange implements RangeStore. For the hash table the scheduling key
// is the bucket index (the Hash output the executor dispatches on), so
// [lo, hi] selects whole buckets; hi clamps to the table size. Each bucket
// drains in its own transaction: the moved range is quiesced by the caller,
// so per-bucket atomicity is enough and keeps the operation obstruction-
// friendly against concurrent traffic on other buckets.
func (t *HashTable) ExtractRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	if int(hi) >= len(t.buckets) {
		hi = uint32(len(t.buckets) - 1)
	}
	var out []uint32
	for b := lo; b <= hi; b++ {
		obj := &t.buckets[b]
		mark := len(out)
		err := th.Atomic(func(tx *stm.Tx) error {
			out = out[:mark] // an aborted attempt must not leave its appends
			v, err := tx.Read(obj)
			if err != nil {
				return err
			}
			if len(v.(*bucket).keys) == 0 {
				return nil // empty bucket: no write acquisition
			}
			w, err := tx.Write(obj)
			if err != nil {
				return err
			}
			bk := w.(*bucket)
			out = append(out, bk.keys...)
			bk.keys = nil
			return nil
		})
		if err != nil {
			return out, err
		}
		if b == hi {
			break // hi may be the maximum uint32; b++ would wrap
		}
	}
	return out, nil
}

// ExtractKeyRange removes and returns every DICTIONARY key in [lo, hi] —
// for deployments that dispatch on the dictionary key itself rather than
// the hash output (e.g. kstmd's wire clients, which choose their own
// scheduling keys). A dictionary-key range is scattered across buckets, so
// this scans the whole table, filtering per bucket; migration is rare and
// fenced, so the O(buckets) pass is paid off the execution path.
func (t *HashTable) ExtractKeyRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	var out []uint32
	for i := range t.buckets {
		obj := &t.buckets[i]
		mark := len(out)
		err := th.Atomic(func(tx *stm.Tx) error {
			out = out[:mark]
			v, err := tx.Read(obj)
			if err != nil {
				return err
			}
			hit := false
			for _, k := range v.(*bucket).keys {
				if k >= lo && k <= hi {
					hit = true
					break
				}
			}
			if !hit {
				return nil
			}
			w, err := tx.Write(obj)
			if err != nil {
				return err
			}
			bk := w.(*bucket)
			kept := bk.keys[:0]
			for _, k := range bk.keys {
				if k >= lo && k <= hi {
					out = append(out, k)
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
	return out, nil
}

// ExtractKeyRanges is the batch form of ExtractKeyRange: one pass over the
// table's buckets removes every dictionary key falling in ANY of the given
// disjoint closed ranges, returning the removed keys per range (out[i]
// belongs to ranges[i]). A multi-range re-partition epoch therefore costs
// one O(buckets) scan instead of one per range — the fence-window saving
// the epoch-fenced migrator batches for.
func (t *HashTable) ExtractKeyRanges(th *stm.Thread, ranges []KeyRange) ([][]uint32, error) {
	out := make([][]uint32, len(ranges))
	if len(ranges) == 0 {
		return out, nil
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
	for b := range t.buckets {
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
	return out, nil
}

// InstallKeys implements RangeStore.
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
