//go:build !race

package wire

import (
	"fmt"
	"testing"
)

// TestAppendResponseAllocs pins the response encoder at zero allocations for
// every scalar value kind: the value is encoded straight into dst, so a
// response frame costs nothing beyond dst's own capacity. (The gate lives in
// a !race file: instrumentation changes allocation counts.)
func TestAppendResponseAllocs(t *testing.T) {
	for _, v := range []any{nil, true, false, uint64(1 << 60), uint32(7), int64(-17), -3, 3.5} {
		resp := Response{ID: 9, Status: StatusOK, Value: v, WaitNS: 1, ExecNS: 2}
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			dst := make([]byte, 0, 256)
			avg := testing.AllocsPerRun(1000, func() {
				var err error
				if dst, err = AppendResponse(dst[:0], resp); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("AppendResponse with a %T value allocates %.2f objects/op, want 0", v, avg)
			}
		})
	}
}
