// Fixture for lockorder: a planted acquisition cycle (direct and via a
// callee), blocking operations under a lock, and the tolerated shapes.
package fixture

import "sync"

type pair struct {
	a  sync.Mutex
	b  sync.Mutex
	ch chan int
}

// ab nests b under a; ba below nests the opposite way — the planted cycle.
func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock() // want `lock acquisition cycle: .*pair\.a -> .*pair\.b -> .*pair\.a`
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

func (p *pair) sendLocked() {
	p.a.Lock()
	p.ch <- 1 // want `blocking operation \(channel send\) while holding .*pair\.a`
	p.a.Unlock()
}

func (p *pair) deferHeld() int {
	p.a.Lock()
	defer p.a.Unlock()
	return <-p.ch // want `blocking operation \(channel receive\) while holding .*pair\.a`
}

// cleanSend blocks with no lock held: not a finding.
func (p *pair) cleanSend() {
	p.ch <- 2
}

func (p *pair) rangeLocked() {
	p.a.Lock()
	for range p.ch { // want `blocking operation \(range over channel\) while holding .*pair\.a`
	}
	p.a.Unlock()
}

func waitHelper(ch chan int) int {
	return <-ch
}

// callBlocks reaches the receive one call level deep.
func (p *pair) callBlocks() int {
	p.a.Lock()
	defer p.a.Unlock()
	return waitHelper(p.ch) // want `call to .*waitHelper blocks \(channel receive\) while holding .*pair\.a`
}

var (
	regMu  sync.Mutex
	statMu sync.Mutex
)

func lockStat() {
	statMu.Lock()
	statMu.Unlock()
}

// regThenStat acquires statMu via lockStat while holding regMu;
// statThenReg nests the other way — a cycle threaded through a call.
func regThenStat() {
	regMu.Lock()
	lockStat() // want `lock acquisition cycle: .*regMu -> .*statMu -> .*regMu \(edge via call to .*lockStat\)`
	regMu.Unlock()
}

func statThenReg() {
	statMu.Lock()
	regMu.Lock()
	regMu.Unlock()
	statMu.Unlock()
}

// suppressedSend is an audited handoff under lock.
func (p *pair) suppressedSend() {
	p.a.Lock()
	p.ch <- 3 //kstmvet:ignore fixture demonstrates an audited handoff under lock
	p.a.Unlock()
}

// waiter binds each Cond to its mutex: cond through its L field, ncond
// through sync.NewCond.
type waiter struct {
	mu    sync.Mutex
	other sync.Mutex
	cond  sync.Cond
	ncond *sync.Cond
	ready bool
}

func (w *waiter) bind() {
	w.cond.L = &w.mu
	w.ncond = sync.NewCond(&w.mu)
}

// waitOwn holds only the lock its Wait releases: not a finding.
func (w *waiter) waitOwn() {
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// waitNewCond is waitOwn through the NewCond binding: not a finding.
func (w *waiter) waitNewCond() {
	w.mu.Lock()
	for !w.ready {
		w.ncond.Wait()
	}
	w.mu.Unlock()
}

// waitNested holds a second lock across the Wait, which only the Cond's own
// lock is released by: the finding names the other lock alone.
func (w *waiter) waitNested() {
	w.other.Lock()
	w.mu.Lock()
	for !w.ready {
		w.cond.Wait() // want `blocking operation \(sync\.Cond\.Wait\) while holding [^,]*waiter\.other$`
	}
	w.mu.Unlock()
	w.other.Unlock()
}
