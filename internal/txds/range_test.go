package txds

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"kstm/internal/rng"
	"kstm/internal/stm"
)

// rangeKinds lists every structure that moves keys by dictionary-key range.
var rangeKinds = []Kind{KindHashTable, KindRBTree, KindSortedList, KindSkipList}

// rangeStore returns set's RangeStore face: the ordered structures are one,
// and the hash table's is its dictionary-key view.
func rangeStore(set IntSet) RangeStore {
	if ht, ok := set.(*HashTable); ok {
		return keyRangeView{ht}
	}
	return set.(RangeStore)
}

type keyRangeView struct{ *HashTable }

func (v keyRangeView) ExtractRange(th *stm.Thread, lo, hi uint32) ([]uint32, error) {
	return v.ExtractKeyRange(th, lo, hi)
}

// TestExtractInstallRoundTrip seeds each structure, extracts a dictionary-key
// range into a second (empty) instance, and checks the partition: extracted
// keys land in the target, the rest stay in the source, nothing is lost or
// duplicated.
func TestExtractInstallRoundTrip(t *testing.T) {
	for _, kind := range rangeKinds {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			th := s.NewThread()
			src, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			// A spread of keys (sparse, so list-based structures stay fast).
			var all []uint32
			for k := uint32(0); k < 2000; k += 7 {
				all = append(all, k)
				if added, err := src.Insert(th, k); err != nil || !added {
					t.Fatalf("seed insert %d: added=%v err=%v", k, added, err)
				}
			}
			const lo, hi = 300, 900
			inRange := func(k uint32) bool { return k >= lo && k <= hi }

			rs := rangeStore(src)
			moved, err := rs.ExtractRange(th, lo, hi)
			if err != nil {
				t.Fatalf("ExtractRange: %v", err)
			}
			if err := rangeStore(dst).InstallKeys(th, moved); err != nil {
				t.Fatalf("InstallKeys: %v", err)
			}

			var wantMoved []uint32
			for _, k := range all {
				if inRange(k) {
					wantMoved = append(wantMoved, k)
				}
			}
			gotMoved := append([]uint32(nil), moved...)
			sort.Slice(gotMoved, func(i, j int) bool { return gotMoved[i] < gotMoved[j] })
			if len(gotMoved) != len(wantMoved) {
				t.Fatalf("extracted %d keys, want %d", len(gotMoved), len(wantMoved))
			}
			for i := range wantMoved {
				if gotMoved[i] != wantMoved[i] {
					t.Fatalf("extracted[%d] = %d, want %d", i, gotMoved[i], wantMoved[i])
				}
			}
			// Every key is in exactly the structure its range says.
			for _, k := range all {
				inSrc, err := src.Contains(th, k)
				if err != nil {
					t.Fatal(err)
				}
				inDst, err := dst.Contains(th, k)
				if err != nil {
					t.Fatal(err)
				}
				if inRange(k) && (inSrc || !inDst) {
					t.Fatalf("key %d (moved): src=%v dst=%v", k, inSrc, inDst)
				}
				if !inRange(k) && (!inSrc || inDst) {
					t.Fatalf("key %d (kept): src=%v dst=%v", k, inSrc, inDst)
				}
			}
			// Empty re-extraction: the range is gone from the source.
			again, err := rs.ExtractRange(th, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != 0 {
				t.Fatalf("second extract returned %d keys", len(again))
			}
		})
	}
}

// TestExtractRangeEmptyAndEdges exercises empty structures, empty ranges and
// the top of the key space (clamping, no uint32 wraparound).
func TestExtractRangeEmptyAndEdges(t *testing.T) {
	for _, kind := range rangeKinds {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			th := s.NewThread()
			set, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			rs := rangeStore(set)
			if keys, err := rs.ExtractRange(th, 0, ^uint32(0)); err != nil || len(keys) != 0 {
				t.Fatalf("empty extract = (%v, %v)", keys, err)
			}
			if _, err := set.Insert(th, 5); err != nil {
				t.Fatal(err)
			}
			// A range that misses the only key.
			if keys, err := rs.ExtractRange(th, 100, 200); err != nil || len(keys) != 0 {
				t.Fatalf("miss extract = (%v, %v)", keys, err)
			}
			if found, err := set.Contains(th, 5); err != nil || !found {
				t.Fatalf("key 5 lost by miss extract: found=%v err=%v", found, err)
			}
			if err := rs.InstallKeys(th, nil); err != nil {
				t.Fatalf("empty install: %v", err)
			}
			// Install with a duplicate is a no-op for the existing key.
			if err := rs.InstallKeys(th, []uint32{5, 6}); err != nil {
				t.Fatal(err)
			}
			for _, k := range []uint32{5, 6} {
				if found, err := set.Contains(th, k); err != nil || !found {
					t.Fatalf("key %d after install: found=%v err=%v", k, found, err)
				}
			}
		})
	}
}

// TestHashTableExtractKeyRange pins the dictionary-key-range view of the
// hash table: aliased keys (k and k+buckets share a bucket) must NOT travel
// together — only the keys inside the requested dictionary range move.
func TestHashTableExtractKeyRange(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	ht := NewHashTable(0)
	alias := uint32(ht.Buckets()) + 5 // same bucket as key 5
	for _, k := range []uint32{5, alias, 42, 60000} {
		if _, err := ht.Insert(th, k); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := ht.ExtractKeyRange(th, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 2 || keys[0] != 5 || keys[1] != 42 {
		t.Fatalf("ExtractKeyRange(0,100) = %v, want [5 42]", keys)
	}
	// The aliased key stayed put even though its bucket was touched.
	for k, want := range map[uint32]bool{5: false, 42: false, alias: true, 60000: true} {
		found, err := ht.Contains(th, k)
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Errorf("key %d: found=%v want=%v", k, found, want)
		}
	}
	// Re-install round-trips.
	if err := ht.InstallKeys(th, keys); err != nil {
		t.Fatal(err)
	}
	if found, err := ht.Contains(th, 5); err != nil || !found {
		t.Fatalf("key 5 after reinstall: %v %v", found, err)
	}
}

// TestExtractRangeUnderConcurrency extracts a quiesced range while other
// goroutines hammer keys outside it — the migration fence's exact contract.
// Run with -race.
func TestExtractRangeUnderConcurrency(t *testing.T) {
	for _, kind := range rangeKinds {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			th := s.NewThread()
			set, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			// Quiesced range [0, 99]; contenders work on [1000, 1100).
			for k := uint32(0); k < 100; k += 3 {
				if _, err := set.Insert(th, k); err != nil {
					t.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					gth := s.NewThread()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := uint32(1000 + (g*25+i)%100)
						if i%2 == 0 {
							if _, err := set.Insert(gth, k); err != nil {
								t.Error(err)
								return
							}
						} else {
							if _, err := set.Delete(gth, k); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			keys, err := rangeStore(set).ExtractRange(th, 0, 99)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("ExtractRange under concurrency: %v", err)
			}
			if want := (100 + 2) / 3; len(keys) != want {
				t.Fatalf("extracted %d keys, want %d", len(keys), want)
			}
		})
	}
}

// TestHashTableExtractKeyRanges pins the one-pass multi-range extraction:
// every key lands in ITS range's output slot, aliased and out-of-range keys
// stay, and the result matches what per-range ExtractKeyRange calls would
// have produced — at one table scan instead of one per range.
func TestHashTableExtractKeyRanges(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	ht := NewHashTable(0)
	alias := uint32(ht.Buckets()) + 5 // same bucket as key 5
	for _, k := range []uint32{5, 42, 99, alias, 300, 301, 60000} {
		if _, err := ht.Insert(th, k); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ht.ExtractKeyRanges(th, []KeyRange{{Lo: 0, Hi: 100}, {Lo: 300, Hi: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d output slots for 2 ranges", len(out))
	}
	sort.Slice(out[0], func(i, j int) bool { return out[0][i] < out[0][j] })
	sort.Slice(out[1], func(i, j int) bool { return out[1][i] < out[1][j] })
	if want := []uint32{5, 42, 99}; !reflect.DeepEqual(out[0], want) {
		t.Fatalf("range [0,100] extracted %v, want %v", out[0], want)
	}
	if want := []uint32{300, 301}; !reflect.DeepEqual(out[1], want) {
		t.Fatalf("range [300,400] extracted %v, want %v", out[1], want)
	}
	// Extracted keys are gone; the aliased and out-of-range keys survive.
	for k, want := range map[uint32]bool{5: false, 42: false, 99: false, 300: false, 301: false, alias: true, 60000: true} {
		found, err := ht.Contains(th, k)
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Errorf("key %d present = %v, want %v", k, found, want)
		}
	}
	// An empty range list is a no-op, not a scan failure.
	if out, err := ht.ExtractKeyRanges(th, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty ranges: %v, %v", out, err)
	}
}

// imageRef is the reference bucket image of the dictionary-key range
// [lo, hi] in an n-bucket table, computed independently of keyImage: bucket
// b is hit iff the smallest key >= lo with key mod n == b is <= hi.
func imageRef(n int, lo, hi uint32) map[int]bool {
	img := make(map[int]bool)
	if lo > hi {
		return img
	}
	for b := 0; b < n; b++ {
		first := uint64(lo) + (uint64(b)+uint64(n)-uint64(lo)%uint64(n))%uint64(n)
		if first <= uint64(hi) {
			img[b] = true
		}
	}
	return img
}

// tableKeys returns the keys of want that ht holds, failing if ht holds any
// key outside want.
func tableKeys(t *testing.T, th *stm.Thread, ht *HashTable, want []uint32) []uint32 {
	t.Helper()
	var held []uint32
	for _, k := range want {
		found, err := ht.Contains(th, k)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			held = append(held, k)
		}
	}
	n, err := ht.Len(th)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(held) {
		t.Fatalf("table holds %d keys, %d of them expected", n, len(held))
	}
	return held
}

// sortedKeys returns a sorted copy of keys (nil for none).
func sortedKeys(keys []uint32) []uint32 {
	if len(keys) == 0 {
		return nil
	}
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

// TestHashTableExtractKeyRangeImage pins that dictionary-key extraction
// visits exactly the buckets its ranges hash to — one committed transaction
// per bucket of the union of their images, never the whole table — and
// still moves exactly the in-range keys, leaving every aliased key put.
func TestHashTableExtractKeyRangeImage(t *testing.T) {
	const n = 31
	const max32 = ^uint32(0)
	r := rng.New(7)
	keys := make(map[uint32]bool)
	for len(keys) < 400 {
		keys[uint32(r.Intn(40*n))] = true
	}
	for i := uint32(0); i < 8; i++ {
		keys[max32-i*n] = true // aliases at the top of the key space
	}
	var all []uint32
	for k := range keys {
		all = append(all, k)
	}
	slices.Sort(all)
	cases := []struct {
		name   string
		ranges []KeyRange
	}{
		{"narrow", []KeyRange{{Lo: 40, Hi: 45}}},
		{"wrap", []KeyRange{{Lo: 58, Hi: 64}}},
		{"wrap-to-zero", []KeyRange{{Lo: 61, Hi: 62}}},
		{"width n-1", []KeyRange{{Lo: 100, Hi: 100 + n - 2}}},
		{"width n", []KeyRange{{Lo: 100, Hi: 100 + n - 1}}},
		{"width n+1", []KeyRange{{Lo: 100, Hi: 100 + n}}},
		{"whole space", []KeyRange{{Lo: 0, Hi: max32}}},
		{"top of space", []KeyRange{{Lo: max32 - 3*n, Hi: max32}}},
		{"empty", []KeyRange{{Lo: 500, Hi: 400}}},
		{"overlapping images", []KeyRange{{Lo: 10, Hi: 15}, {Lo: 41, Hi: 50}, {Lo: 70, Hi: 72}, {Lo: 900, Hi: 800}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := stm.New()
			th := s.NewThread()
			ht := NewHashTable(n)
			if err := ht.InstallKeys(th, all); err != nil {
				t.Fatal(err)
			}
			union := make(map[int]bool)
			for _, kr := range tc.ranges {
				for b := range imageRef(n, kr.Lo, kr.Hi) {
					union[b] = true
				}
			}
			before := s.Stats().Commits
			var out [][]uint32
			if len(tc.ranges) == 1 {
				got, err := ht.ExtractKeyRange(th, tc.ranges[0].Lo, tc.ranges[0].Hi)
				if err != nil {
					t.Fatal(err)
				}
				out = [][]uint32{got}
			} else {
				var err error
				if out, err = ht.ExtractKeyRanges(th, tc.ranges); err != nil {
					t.Fatal(err)
				}
			}
			if got := s.Stats().Commits - before; got != uint64(len(union)) {
				t.Errorf("extraction committed %d transactions, want %d (one per bucket of the image)", got, len(union))
			}
			var kept []uint32
			want := make([][]uint32, len(tc.ranges))
			for _, k := range all {
				in := false
				for i, kr := range tc.ranges {
					if k >= kr.Lo && k <= kr.Hi {
						want[i] = append(want[i], k)
						in = true
					}
				}
				if !in {
					kept = append(kept, k)
				}
			}
			for i := range tc.ranges {
				if got := sortedKeys(out[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("range %v extracted %v, want %v", tc.ranges[i], got, want[i])
				}
			}
			if got := tableKeys(t, th, ht, all); !reflect.DeepEqual(sortedKeys(got), sortedKeys(kept)) {
				t.Errorf("table kept %d keys, want %d (every out-of-range key, aliases included)", len(got), len(kept))
			}
		})
	}
}

// FuzzKeyRangeExtractInstall moves the keys of up to two disjoint
// dictionary-key ranges from one hash table into another of a different
// size, as a migration epoch between differently sized shards does. The
// move must keep the union of the two tables, take exactly the in-range
// keys out of the source, and commit one transaction per bucket of the
// ranges' image.
func FuzzKeyRangeExtractInstall(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint16(31), uint16(17), uint32(0), uint32(100), uint32(200), uint32(260))
	f.Add(uint64(2), uint8(200), uint16(7), uint16(97), uint32(25), uint32(33), uint32(34), uint32(40))
	f.Add(uint64(3), uint8(90), uint16(1), uint16(2), uint32(5), uint32(5), uint32(9), uint32(1<<31))
	f.Add(uint64(4), uint8(255), uint16(64), uint16(63), uint32(0), uint32(1<<31), uint32(1<<31), ^uint32(0))
	f.Add(uint64(5), uint8(0), uint16(13), uint16(13), uint32(3), uint32(2), uint32(1), uint32(0))
	f.Fuzz(func(t *testing.T, seed uint64, nkeys uint8, srcN, dstN uint16, a, b, c, d uint32) {
		srcBuckets, dstBuckets := 1+int(srcN%257), 1+int(dstN%257)
		ends := []uint32{a, b, c, d}
		slices.Sort(ends)
		ranges := []KeyRange{{Lo: ends[0], Hi: ends[1]}, {Lo: ends[2], Hi: ends[3]}}
		if ranges[1].Lo <= ranges[0].Hi {
			// Keep the ranges disjoint; at the top of the space the second
			// one becomes empty (Lo > Hi).
			ranges[1].Lo = ranges[0].Hi + 1
			if ranges[0].Hi == ^uint32(0) {
				ranges[1].Lo, ranges[1].Hi = 1, 0
			}
		}
		// Keys cluster near the range ends and the low buckets, so ranges
		// and aliases both hit; a few are drawn from the whole space.
		r := rng.New(seed)
		draw := func() uint32 {
			switch r.Intn(3) {
			case 0:
				return ends[r.Intn(4)] + uint32(r.Intn(2*srcBuckets+1)) - uint32(srcBuckets)
			case 1:
				return uint32(r.Intn(4 * (srcBuckets + dstBuckets)))
			default:
				return r.Uint32()
			}
		}
		// Shards partition the keys: the two tables start disjoint.
		srcKeys, dstKeys := make(map[uint32]bool), make(map[uint32]bool)
		for i := 0; i < int(nkeys); i++ {
			if k := draw(); !dstKeys[k] {
				srcKeys[k] = true
			}
			if k := draw(); i%2 == 0 && !srcKeys[k] {
				dstKeys[k] = true
			}
		}
		s := stm.New()
		th := s.NewThread()
		src, dst := NewHashTable(srcBuckets), NewHashTable(dstBuckets)
		var union, srcAll, dstAll []uint32
		for k := range srcKeys {
			srcAll = append(srcAll, k)
		}
		for k := range dstKeys {
			dstAll = append(dstAll, k)
		}
		union = append(append(union, srcAll...), dstAll...)
		if err := src.InstallKeys(th, srcAll); err != nil {
			t.Fatal(err)
		}
		if err := dst.InstallKeys(th, dstAll); err != nil {
			t.Fatal(err)
		}
		image := make(map[int]bool)
		for _, kr := range ranges {
			for bk := range imageRef(srcBuckets, kr.Lo, kr.Hi) {
				image[bk] = true
			}
		}
		before := s.Stats().Commits
		out, err := src.ExtractKeyRanges(th, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Commits - before; got != uint64(len(image)) {
			t.Fatalf("extraction committed %d transactions, want %d", got, len(image))
		}
		inRange := func(k uint32) int {
			for i, kr := range ranges {
				if k >= kr.Lo && k <= kr.Hi {
					return i
				}
			}
			return -1
		}
		want := make([][]uint32, len(ranges))
		var wantSrc []uint32
		for _, k := range srcAll {
			if i := inRange(k); i >= 0 {
				want[i] = append(want[i], k)
			} else {
				wantSrc = append(wantSrc, k)
			}
		}
		for i := range ranges {
			if got := sortedKeys(out[i]); !reflect.DeepEqual(got, sortedKeys(want[i])) {
				t.Fatalf("range %v extracted %v, want %v", ranges[i], got, sortedKeys(want[i]))
			}
			if err := dst.InstallKeys(th, out[i]); err != nil {
				t.Fatal(err)
			}
		}
		gotSrc := tableKeys(t, th, src, union)
		if !reflect.DeepEqual(sortedKeys(gotSrc), sortedKeys(wantSrc)) {
			t.Fatalf("source kept %v, want %v", sortedKeys(gotSrc), sortedKeys(wantSrc))
		}
		gotDst := tableKeys(t, th, dst, union)
		if got := sortedKeys(append(gotSrc, gotDst...)); len(got) != len(gotSrc)+len(gotDst) || !reflect.DeepEqual(got, sortedKeys(union)) {
			t.Fatalf("tables hold %d+%d keys after the move, want the %d-key union exactly once", len(gotSrc), len(gotDst), len(union))
		}
	})
}
