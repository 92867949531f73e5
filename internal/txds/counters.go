package txds

import (
	"fmt"

	"kstm/internal/splitphase"
	"kstm/internal/stm"
)

// Counters is a transactional array of aggregate cells — the store behind
// the split-phase contention workload. Each cell keeps a signed sum, a
// running max/min and a bounded top-K multiset, i.e. exactly the commutative
// aggregate shapes split-phase accumulators fold (splitphase.Agg), so an
// epoch merge installs with one MergeAgg transaction per split key.
//
// The scheduling key of every operation is the counter index itself: all
// traffic on one counter serializes on one worker under key routing, which
// is the hot-key serialization class split-phase execution exists to break.
type Counters struct {
	cells []stm.Object // each holds *CounterValue; used in place
}

// CounterValue is one cell's aggregate state.
type CounterValue struct {
	// Sum is the signed running total of Add deltas.
	Sum int64
	// Max/HasMax track the largest MergeMax argument seen.
	Max    uint32
	HasMax bool
	// Min/HasMin track the smallest MergeMin argument seen.
	Min    uint32
	HasMin bool
	// Top holds the largest TopKInsert arguments, descending, at most
	// splitphase.TopKSize entries.
	Top []uint32
}

func cloneCounterValue(v any) any {
	c := *v.(*CounterValue)
	if len(c.Top) > 0 {
		c.Top = append([]uint32(nil), c.Top...)
	}
	return &c
}

// NewCounters returns n zeroed counter cells.
func NewCounters(n int) *Counters {
	if n < 1 {
		n = 1
	}
	return &Counters{cells: stm.NewObjects(n, &CounterValue{}, cloneCounterValue)}
}

// Len returns the number of counters.
func (c *Counters) Len() int { return len(c.cells) }

func (c *Counters) cell(key uint32) (*stm.Object, error) {
	if int(key) >= len(c.cells) {
		return nil, fmt.Errorf("txds: counter key %d out of range [0,%d)", key, len(c.cells))
	}
	return &c.cells[key], nil
}

// Add adds a signed delta to the counter's sum.
func (c *Counters) Add(th *stm.Thread, key uint32, delta int32) error {
	obj, err := c.cell(key)
	if err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		w.(*CounterValue).Sum += int64(delta)
		return nil
	})
}

// MergeMax folds v into the counter's running maximum.
func (c *Counters) MergeMax(th *stm.Thread, key uint32, v uint32) error {
	obj, err := c.cell(key)
	if err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		r, err := tx.Read(obj)
		if err != nil {
			return err
		}
		if cv := r.(*CounterValue); cv.HasMax && v <= cv.Max {
			return nil // read-only fast path: no change
		}
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		cv := w.(*CounterValue)
		cv.Max, cv.HasMax = v, true
		return nil
	})
}

// MergeMin folds v into the counter's running minimum.
func (c *Counters) MergeMin(th *stm.Thread, key uint32, v uint32) error {
	obj, err := c.cell(key)
	if err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		r, err := tx.Read(obj)
		if err != nil {
			return err
		}
		if cv := r.(*CounterValue); cv.HasMin && v >= cv.Min {
			return nil
		}
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		cv := w.(*CounterValue)
		cv.Min, cv.HasMin = v, true
		return nil
	})
}

// TopKInsert folds v into the counter's bounded top-K multiset.
func (c *Counters) TopKInsert(th *stm.Thread, key uint32, v uint32) error {
	obj, err := c.cell(key)
	if err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		r, err := tx.Read(obj)
		if err != nil {
			return err
		}
		if top := r.(*CounterValue).Top; len(top) == splitphase.TopKSize && v < top[len(top)-1] {
			return nil // below the kept floor: no change
		}
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		cv := w.(*CounterValue)
		cv.Top = splitphase.MergeTop(cv.Top, v)
		return nil
	})
}

// Value reads the counter's full aggregate state in one transaction.
func (c *Counters) Value(th *stm.Thread, key uint32) (CounterValue, error) {
	obj, err := c.cell(key)
	if err != nil {
		return CounterValue{}, err
	}
	var out CounterValue
	err = th.Atomic(func(tx *stm.Tx) error {
		r, err := tx.Read(obj)
		if err != nil {
			return err
		}
		out = *r.(*CounterValue)
		if len(out.Top) > 0 {
			out.Top = append([]uint32(nil), out.Top...)
		}
		return nil
	})
	if err != nil {
		return CounterValue{}, err
	}
	return out, nil
}

// MergeAgg installs a folded split-phase aggregate into the counter in a
// single transaction — the epoch-merge coordinator's store hand-off. The
// install is all-or-nothing: on abort-exhaustion the caller restores the
// aggregate into its accumulator and retries next epoch.
func (c *Counters) MergeAgg(th *stm.Thread, key uint32, agg splitphase.Agg) error {
	if agg.Empty() {
		return nil
	}
	obj, err := c.cell(key)
	if err != nil {
		return err
	}
	return th.Atomic(func(tx *stm.Tx) error {
		w, err := tx.Write(obj)
		if err != nil {
			return err
		}
		cv := w.(*CounterValue)
		cv.Sum += agg.Add
		if agg.HasMax && (!cv.HasMax || agg.Max > cv.Max) {
			cv.Max, cv.HasMax = agg.Max, true
		}
		if agg.HasMin && (!cv.HasMin || agg.Min < cv.Min) {
			cv.Min, cv.HasMin = agg.Min, true
		}
		for _, v := range agg.Top {
			cv.Top = splitphase.MergeTop(cv.Top, v)
		}
		return nil
	})
}
