//go:build !race

package txds

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Footprint and allocation gates for the read-mostly tree; not built under
// the race detector. CI runs them in its non-race gate step.

// TestRBTreeContainsAllocs: a lookup in the 32768-key tree allocates
// nothing, however long its read set.
func TestRBTreeContainsAllocs(t *testing.T) {
	tree, th := prefilledRBTree(t)
	key := uint32(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(1000, func() {
		key += 7919
		if _, err := tree.Contains(th, key%(2*prefillKeys)); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("RBTree.Contains allocates %.2f objects/op, want 0", avg)
	}
}

// TestRBTreeNoopUpdateAllocs: an insert of a present key and a delete of an
// absent one search read-only and acquire nothing, so, like a lookup, they
// allocate nothing.
func TestRBTreeNoopUpdateAllocs(t *testing.T) {
	tree, th := prefilledRBTree(t)
	present, absent := splitPrefilledKeys(t, tree, th, 1000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name string
		keys []uint32
		op   func(uint32) (bool, error)
	}{
		{"Insert of a present key", present, func(k uint32) (bool, error) { return tree.Insert(th, k) }},
		{"Delete of an absent key", absent, func(k uint32) (bool, error) { return tree.Delete(th, k) }},
	} {
		i := 0
		avg := testing.AllocsPerRun(1000, func() {
			changed, err := c.op(c.keys[i%len(c.keys)])
			if err != nil || changed {
				t.Fatalf("%s: (%v, %v), want (false, nil)", c.name, changed, err)
			}
			i++
		})
		if avg != 0 {
			t.Errorf("%s allocates %.2f objects/op, want 0", c.name, avg)
		}
	}
}

// TestRBTreeUpdateAllocs: an effective insert and the delete that undoes it
// allocate a Tx each, the new leaf, and a locator and a clone per node
// written — about 15 per pair, since only nodes whose colour or links change
// are written.
func TestRBTreeUpdateAllocs(t *testing.T) {
	tree, th := prefilledRBTree(t)
	_, absent := splitPrefilledKeys(t, tree, th, 1000)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		insertThenDelete(t, tree, th, absent[i%len(absent)])
		i++
	})
	t.Logf("insert + delete of an absent key: %.2f objects/pair", avg)
	if avg > 20 {
		t.Fatalf("insert + delete allocates %.2f objects/pair, want <= 20", avg)
	}
}

// TestRBTreePrefillFootprint: what stays reachable after the prefill is the
// tree — nodes, their current locators and the transactions those name —
// not every read set that built it (more than 100 MiB before a finished Tx
// stopped owning its read set).
func TestRBTreePrefillFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tree, th := prefilledRBTree(t)
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limitMiB = 16
	grownMiB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	t.Logf("heap after a %d-key prefill and GC: +%.1f MiB", prefillKeys, grownMiB)
	if grownMiB > limitMiB {
		t.Fatalf("heap grew by %.1f MiB, want <= %d MiB", grownMiB, limitMiB)
	}
	runtime.KeepAlive(tree)
	runtime.KeepAlive(th)
}
