package main

import (
	"time"

	"kstm/internal/stm"
)

// probeSTM times the smallest transactions: one Thread.Atomic that reads one
// Box, and one that writes it.
func probeSTM(d time.Duration, l *metricSet) {
	th := stm.New().NewThread()
	box := stm.NewBox(uint64(0))
	const n = 1024
	l.set("stm.atomic_ro_ns_op", perOp(d, n, func() {
		for i := 0; i < n; i++ {
			_ = th.Atomic(func(tx *stm.Tx) error { // cannot abort: one thread
				v, err := box.Read(tx)
				if err == nil {
					sink += *v
				}
				return err
			})
		}
	}))
	l.set("stm.atomic_rw_ns_op", perOp(d, n, func() {
		for i := 0; i < n; i++ {
			_ = th.Atomic(func(tx *stm.Tx) error {
				v, err := box.Write(tx)
				if err == nil {
					*v++
				}
				return err
			})
		}
	}))
}
