package harness

import (
	"fmt"

	"kstm/internal/core"
	"kstm/internal/splitphase"
	"kstm/internal/stm"
	"kstm/internal/txds"
)

// ContentionCounters is the keyed-aggregate counter space the benchmark's
// inproc-split workload and kstmd -structure counters run against:
// scheduling key == counter index, so key-affinity routing and split-phase
// promotion both see the client's hot keys directly.
const ContentionCounters = 1024

// CounterWorkload binds txds.Counters to the executor's commutative-op
// contract: OpAdd/OpMax/OpMin/OpTopK return nil values (so a locally-
// absorbed op is indistinguishable from a transactional one), OpLookup
// returns the counter's sum as int64. It implements core.CommutativeWorkload
// and core.SplitMergeWorkload, making it usable with WithSplitPhase.
type CounterWorkload struct {
	c *txds.Counters
}

// NewCounterWorkload wraps a counter bank as an executor workload.
func NewCounterWorkload(c *txds.Counters) *CounterWorkload {
	return &CounterWorkload{c: c}
}

// Execute implements core.Workload.
func (w *CounterWorkload) Execute(th *stm.Thread, t core.Task) (any, error) {
	k := uint32(t.Key)
	switch t.Op {
	case core.OpAdd:
		return nil, w.c.Add(th, k, int32(t.Arg))
	case core.OpMax:
		return nil, w.c.MergeMax(th, k, t.Arg)
	case core.OpMin:
		return nil, w.c.MergeMin(th, k, t.Arg)
	case core.OpTopK:
		return nil, w.c.TopKInsert(th, k, t.Arg)
	case core.OpLookup:
		v, err := w.c.Value(th, k)
		if err != nil {
			return nil, err
		}
		return v.Sum, nil
	case core.OpNoop:
		return nil, nil
	default:
		return nil, fmt.Errorf("harness: counter workload: unknown op %v", t.Op)
	}
}

// CommutativeOps implements core.CommutativeWorkload.
func (w *CounterWorkload) CommutativeOps() map[core.Op]splitphase.Kind {
	return map[core.Op]splitphase.Kind{
		core.OpAdd:  splitphase.KindAdd,
		core.OpMax:  splitphase.KindMax,
		core.OpMin:  splitphase.KindMin,
		core.OpTopK: splitphase.KindTopK,
	}
}

// ApplyMerged implements core.SplitMergeWorkload.
func (w *CounterWorkload) ApplyMerged(th *stm.Thread, key uint64, agg splitphase.Agg) error {
	return w.c.MergeAgg(th, uint32(key), agg)
}
