// Fixture for hotpathalloc: planted violations of the //kstmvet:hotpath
// allocation-free contract. Facts here use the static approximation (the go
// tool cannot build testdata packages, so no escape diagnostics exist).
package fixture

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

type item struct {
	k int
	v string
}

// clean is the shape the contract wants: index arithmetic, field writes,
// reslicing — nothing that touches the heap.
//
//kstmvet:hotpath
func clean(items []item, k int) int {
	n := 0
	for i := range items {
		if items[i].k == k {
			n++
		}
	}
	return n
}

//kstmvet:hotpath
func allocs(xs []int, v string) []byte {
	m := make(map[string]int) // want `hot path heap allocation: make`
	m[v] = 1
	_ = &item{k: 1}    // want `hot path heap allocation: address of composite literal`
	_ = "prefix: " + v // want `hot path heap allocation: string concatenation`
	xs = append(xs, 1) // want `hot path heap allocation: append`
	_ = xs
	return []byte(v) // want `hot path heap allocation: \[\]byte/string conversion`
}

//kstmvet:hotpath
func boxes(v int) any {
	return any(v) // want `hot path heap allocation: boxes int into interface`
}

//kstmvet:hotpath
func clocky() time.Time {
	return time.Now() // want `hot path reads the clock: time.Now`
}

//kstmvet:hotpath
func closurey(n int) func() int {
	return func() int { return n } // want `hot path closure captures variables`
}

//kstmvet:hotpath
func spawns(ch chan int) {
	go drain(ch) // want `hot path spawns a goroutine`
}

//kstmvet:hotpath
func blocky(ch chan int) int {
	return <-ch // want `hot path blocking operation: channel receive`
}

//kstmvet:hotpath
func sleepy() {
	time.Sleep(time.Millisecond) // want `hot path blocking operation: time.Sleep`
}

//kstmvet:hotpath
func selecty(a, b chan int) int {
	select { // want `hot path blocking operation: select without default`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

//kstmvet:hotpath
func denies(v int) string {
	return fmt.Sprintf("%d", v) // want `hot path calls deny-listed fmt.Sprintf`
}

//kstmvet:hotpath
func sorts(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `deny-listed sort.Slice` `closure captures`
}

// coldError shows the tolerated shape: error construction on the failure
// return — including its string concatenation — is cold-path by contract.
//
//kstmvet:hotpath
func coldError(v int, what string) error {
	if v < 0 {
		return errors.New("negative " + what)
	}
	if v > 1<<20 {
		return fmt.Errorf("oversized %s: %d", what, v)
	}
	return nil
}

//kstmvet:hotpath
func callsHelper(n int) []int {
	return sliceHelper(n) // want `hot path calls .*sliceHelper, which heap-allocates`
}

// sliceHelper is not annotated, but its facts record the make — the
// one-level-deep check flags its hot-path callers.
func sliceHelper(n int) []int {
	return make([]int, n)
}

// encodeNil plants the shape of a response encoder that encodes its value
// into a fresh slice instead of into dst: the annotated callee's append is
// amortized on its own, but the nil makes it allocate every call.
//
//kstmvet:hotpath
func encodeNil(v byte) int {
	val := appendTag(nil, v) // want `hot path heap allocation: passes nil to .*appendTag, which appends into it`
	return len(val)
}

// encodeInto is the repaired shape: the value goes straight into dst.
//
//kstmvet:hotpath
func encodeInto(dst []byte, v byte) []byte {
	return appendTag(dst, v)
}

// appendTag appends into its dst parameter. The static approximation
// flags every append; the compiler's escape facts do not (growth into a
// reused buffer is amortized), which is why only the nil caller is a finding
// in real packages.
//
//kstmvet:hotpath
func appendTag(dst []byte, v byte) []byte {
	return append(dst, v) // want `hot path heap allocation: append`
}

//kstmvet:hotpath
func suppressed(n int) []int {
	return make([]int, n) //kstmvet:ignore fixture demonstrates suppression carries an auditable reason
}

// wakeSpine mirrors the executor's enqueue→wake spine (core/wake.go
// tryWake): a CAS-guarded NON-blocking token send into a reusable cap-1
// channel. This is the legal allocation-free shape — the select has a
// default, so neither a blocking diagnostic nor an allocation fires.
//
//kstmvet:hotpath
func wakeSpine(idle *uint32, token chan struct{}) bool {
	if *idle == 0 {
		return false
	}
	*idle = 0
	select {
	case token <- struct{}{}:
	default:
	}
	return true
}

// wakeSpineAlloc plants the regression this fixture exists to prove caught:
// building the wake token ON the wake path instead of reusing the
// per-worker channel — exactly the bug that would silently turn every
// targeted wake into a heap allocation.
//
//kstmvet:hotpath
func wakeSpineAlloc(idle *uint32) chan struct{} {
	if *idle == 0 {
		return nil
	}
	*idle = 0
	token := make(chan struct{}, 1) // want `hot path heap allocation: make`
	select {
	case token <- struct{}{}:
	default:
	}
	return token
}

// drain keeps the goroutine fixture honest.
func drain(ch chan int) {
	for range ch {
	}
}
