package txds

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"kstm/internal/rng"
	"kstm/internal/stm"
)

// checkTreeAgainst fails the test unless the tree keeps the red-black
// invariants and holds exactly the model's keys.
func checkTreeAgainst(t *testing.T, tree *RBTree, th *stm.Thread, model map[uint32]bool, after string) {
	t.Helper()
	n, err := tree.CheckInvariants(th)
	if err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	got, err := tree.Keys(th)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if n != len(want) || !slices.Equal(got, want) {
		t.Fatalf("after %s: tree holds %v (%d nodes), model %v", after, got, n, want)
	}
}

// permutations calls fn with every ordering of keys, in place.
func permutations(keys []uint32, fn func([]uint32)) {
	var rec func(int)
	rec = func(i int) {
		if i == len(keys) {
			fn(keys)
			return
		}
		for j := i; j < len(keys); j++ {
			keys[i], keys[j] = keys[j], keys[i]
			rec(i + 1)
			keys[i], keys[j] = keys[j], keys[i]
		}
	}
	rec(0)
}

// TestRBTreeAllInsertOrders inserts each of the 5040 orders of seven keys,
// then deletes them in the same order, checking the invariants and the key
// set after every operation. Together the orders reach every insert case and
// every delete case of the bottom-up fix-up, in both mirror images.
func TestRBTreeAllInsertOrders(t *testing.T) {
	tree, th := NewRBTree(), stm.New().NewThread()
	model := map[uint32]bool{}
	permutations([]uint32{1, 2, 3, 4, 5, 6, 7}, func(order []uint32) {
		if t.Failed() {
			return
		}
		for _, k := range order {
			added, err := tree.Insert(th, k)
			if err != nil || !added {
				t.Fatalf("order %v: Insert(%d) = (%v, %v)", order, k, added, err)
			}
			model[k] = true
			checkTreeAgainst(t, tree, th, model, fmt.Sprintf("Insert(%d) in order %v", k, order))
		}
		for _, k := range order {
			removed, err := tree.Delete(th, k)
			if err != nil || !removed {
				t.Fatalf("order %v: Delete(%d) = (%v, %v)", order, k, removed, err)
			}
			delete(model, k)
			checkTreeAgainst(t, tree, th, model, fmt.Sprintf("Delete(%d) in order %v", k, order))
		}
	})
}

// modelOp applies a random Insert, Delete or Contains of k to the tree and
// the model alike, and returns the tree's answer and the model's.
func modelOp(tree *RBTree, th *stm.Thread, r *rng.Xoshiro256, k uint32, model map[uint32]bool) (got, want bool, err error) {
	switch r.Uint64n(3) {
	case 0:
		got, err = tree.Insert(th, k)
		want = !model[k]
		model[k] = true
	case 1:
		got, err = tree.Delete(th, k)
		want = model[k]
		delete(model, k)
	default:
		got, err = tree.Contains(th, k)
		want = model[k]
	}
	return got, want, err
}

// TestRBTreeSeededModel drives seeded random updates and lookups over a
// 64-key space against a map model, checking the invariants and the key set
// after every operation.
func TestRBTreeSeededModel(t *testing.T) {
	ops := 4000
	if testing.Short() {
		ops = 1500
	}
	for seed := uint64(1); seed <= 3; seed++ {
		tree, th := NewRBTree(), stm.New().NewThread()
		model := map[uint32]bool{}
		r := rng.New(seed)
		for i := 0; i < ops; i++ {
			k := uint32(r.Uint64n(64))
			if got, want, err := modelOp(tree, th, r, k, model); err != nil || got != want {
				t.Fatalf("seed %d op %d key %d: (%v, %v), model says %v", seed, i, k, got, err, want)
			}
			checkTreeAgainst(t, tree, th, model, fmt.Sprintf("seed %d op %d", seed, i))
		}
	}
}

// TestRBTreeConcurrentOwnedKeys: goroutine g owns the keys ≡ g (mod G) of a
// shared 256-key tree and checks every result against its own model while
// the others' rotations reshape the paths it searches. A key lost or
// duplicated by a rotation shows up as a wrong result, which a shape check
// alone (TestRBTreeConcurrent) cannot see.
func TestRBTreeConcurrentOwnedKeys(t *testing.T) {
	const goroutines, keySpace = 4, 256
	ops := 40000
	if testing.Short() {
		ops = 5000
	}
	s, tree := stm.New(), NewRBTree()
	models := make([]map[uint32]bool, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range goroutines {
		models[g] = map[uint32]bool{}
		wg.Add(1)
		go func(g int, model map[uint32]bool) {
			defer wg.Done()
			th := s.NewThread()
			r := rng.New(uint64(g + 1))
			<-start
			for i := 0; i < ops; i++ {
				k := uint32(g) + goroutines*uint32(r.Uint64n(keySpace/goroutines))
				if got, want, err := modelOp(tree, th, r, k, model); err != nil || got != want {
					t.Errorf("goroutine %d op %d key %d: (%v, %v), model says %v", g, i, k, got, err, want)
					return
				}
			}
		}(g, models[g])
	}
	close(start)
	wg.Wait()
	st := s.Stats()
	t.Logf("%d commits, %d conflicts, %d aborted attempts", st.Commits, st.Conflicts, st.Retries)
	if t.Failed() {
		return
	}
	union := map[uint32]bool{}
	for _, m := range models {
		for k := range m {
			union[k] = true
		}
	}
	checkTreeAgainst(t, tree, s.NewThread(), union, "concurrent owned-key churn")
}
