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
