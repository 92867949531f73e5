// Fixtures for the futureconsume analyzer: the §3.5 settle-then-recycle
// contract. A Wait/WaitValue that returns the task's result consumes the
// Future — the pooled shell is recycled immediately and may already carry
// another task's result — while a ctx.Err() return does not consume, which
// makes the error-guarded re-wait idiom legal.
package fixture

import (
	"context"

	"kstm/internal/core"
)

// doubleWait: the recycled-future double-Wait bug.
func doubleWait(f *core.Future) {
	res, err := f.Wait(nil)
	_, _ = res, err
	res2, err2 := f.Wait(nil) // want `Future f consumed twice`
	_, _ = res2, err2
}

// useAfterConsume: any touch after the consuming call hits a dead shell.
func useAfterConsume(f *core.Future) {
	v, err := f.WaitValue(context.Background())
	_, _ = v, err
	res, ok := f.Poll() // want `Future f used after being consumed by WaitValue`
	_, _ = res, ok
}

// passAfterConsume: handing the dead shell to someone else is a use too.
func passAfterConsume(f *core.Future, sink func(*core.Future)) {
	_, _ = f.Wait(nil)
	sink(f) // want `Future f used after being consumed by Wait`
}

// legalRewait: a ctx-bounded Wait may not have consumed; re-waiting under
// the error guard is the documented orphaned-task idiom.
func legalRewait(ctx context.Context, f *core.Future) error {
	res, err := f.Wait(ctx)
	if err != nil {
		res, err = f.Wait(context.Background())
	}
	_ = res
	return err
}

// branches: one consume per exclusive path is fine.
func branches(cond bool, f *core.Future) {
	if cond {
		_, _ = f.Wait(nil)
	} else {
		_, _ = f.Wait(nil)
	}
}

// reassigned: a fresh shell resets the tracking.
func reassigned(f *core.Future, fresh func() *core.Future) {
	_, _ = f.Wait(nil)
	f = fresh()
	_, _ = f.Wait(nil)
}

// perIteration: one Wait per loop-local future is the normal fan-in.
func perIteration(futs []*core.Future) {
	for _, g := range futs {
		_, _ = g.Wait(nil)
	}
}

// loopConsume: an outer future consumed with an unexpirable context on
// every iteration is a guaranteed double consume.
func loopConsume(futs []*core.Future, f *core.Future) {
	for range futs {
		_, _ = f.Wait(nil) // want `Future f is consumed on every iteration`
	}
}

// pollThenWait: Poll never consumes; observing before the Wait is fine.
func pollThenWait(f *core.Future) {
	if _, ok := f.Poll(); ok {
		return
	}
	_, _ = f.Wait(nil)
}

// suppressed: a justified post-consume touch stays out of the live set.
func suppressed(f *core.Future) {
	_, _ = f.Wait(nil)
	_, _ = f.Poll() //kstmvet:ignore fixture: demonstrating the suppression form on a dead-shell read
}
