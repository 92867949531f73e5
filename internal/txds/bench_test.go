package txds

import (
	"testing"

	"kstm/internal/rng"
	"kstm/internal/stm"
)

// prefillKeys is the size of the repo benchmark's inproc-tree prefill: a
// seeded random half of the 16-bit key space.
const prefillKeys = 32768

// prefilledRBTree builds that tree on a fresh STM and returns the thread
// that built it.
func prefilledRBTree(tb testing.TB) (*RBTree, *stm.Thread) {
	tb.Helper()
	keys := make([]uint32, 2*prefillKeys)
	for i := range keys {
		keys[i] = uint32(i)
	}
	r := rng.New(1)
	for i := len(keys) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	tree, th := NewRBTree(), stm.New().NewThread()
	for _, k := range keys[:prefillKeys] {
		if _, err := tree.Insert(th, k); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, th
}

// splitPrefilledKeys returns n keys of the prefilled key space that the tree
// holds and n that it does not, spread over the whole space.
func splitPrefilledKeys(tb testing.TB, tree *RBTree, th *stm.Thread, n int) (present, absent []uint32) {
	tb.Helper()
	for i := uint32(0); i < 2*prefillKeys && (len(present) < n || len(absent) < n); i++ {
		k := i * 7919 % (2 * prefillKeys) // odd stride: visits every key once
		found, err := tree.Contains(th, k)
		if err != nil {
			tb.Fatal(err)
		}
		if found && len(present) < n {
			present = append(present, k)
		} else if !found && len(absent) < n {
			absent = append(absent, k)
		}
	}
	return present, absent
}

// BenchmarkRBTreePrefill32k is one op per whole prefill: the set-up the
// inproc-tree workload pays, and where whole-set validation cost the most.
func BenchmarkRBTreePrefill32k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prefilledRBTree(b)
	}
}

// BenchmarkRBTreeContains is one uncontended lookup in the prefilled tree:
// about 15 reads, no write.
func BenchmarkRBTreeContains(b *testing.B) {
	tree, th := prefilledRBTree(b)
	r := rng.New(2)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, err := tree.Contains(th, uint32(r.Intn(2*prefillKeys)))
		if err != nil {
			b.Fatal(err)
		}
		if found {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkRBTreeUpdate is one uncontended effective insert of an absent key
// into the prefilled tree and the delete that takes it out again.
func BenchmarkRBTreeUpdate(b *testing.B) {
	tree, th := prefilledRBTree(b)
	_, absent := splitPrefilledKeys(b, tree, th, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertThenDelete(b, tree, th, absent[i%len(absent)])
	}
}

// insertThenDelete adds the absent key k and takes it out again.
func insertThenDelete(tb testing.TB, tree *RBTree, th *stm.Thread, k uint32) {
	if added, err := tree.Insert(th, k); err != nil || !added {
		tb.Fatalf("Insert(%d) = (%v, %v)", k, added, err)
	}
	if removed, err := tree.Delete(th, k); err != nil || !removed {
		tb.Fatalf("Delete(%d) = (%v, %v)", k, removed, err)
	}
}
