//go:build !desplain

package des

// Sleep chains (DESIGN.md §16): a run of back-to-back Sleeps dispatched as
// one event. A process that only sleeps mints no lineage keys between its
// wakes, so the key every elided wake would have carried is computable up
// front — k₁ = childKey(), kᵢ₊₁ = mixKey(kᵢ, 0) — and the single wake is
// pushed at the summed time under the key of the last one. Its position in
// the (at, key) order, and the key base the process resumes with, are then
// exactly those of the Sleep loop; only the event count and the schedule
// fingerprint shrink. The desplain build (chain_plain.go) is that loop.

// chainState is the SleepChain in progress on a process.
type chainState struct {
	steps []Step // nil when not chained; truncated by a cut
	pos   int    // first step not known to have completed
	at    Time   // wake instant of step pos
	key   uint64 // lineage key of step pos's wake
}

// hopKey advances a wake's lineage key by n further Sleeps.
func hopKey(k uint64, n int) uint64 {
	for ; n > 0; n-- {
		k = mixKey(k, 0)
	}
	return k
}

// SleepStep sleeps one step as a single event. It is SleepChain over a
// one-step chain, without the slice (so nothing escapes to the heap) and
// with nothing for CutChain to do: a process cannot act inside a step.
func (p *Proc) SleepStep(s Step) {
	s.check()
	e := p.eng
	p.sleepKeyed(e.now+s.D, hopKey(e.execCtx().childKey(), s.Hops-1))
}

// SleepStep parks the task for one step, as a single event.
func (t *Task) SleepStep(s Step) {
	s.check()
	p, e := (*Proc)(t), t.eng
	p.wakeKeyed(e.now+s.D, hopKey(e.execCtx().childKey(), s.Hops-1), false)
	p.park("sleep")
}

// midStep reports whether a dispatched task wake is a hop inside a step
// rather than its end: never in this build, which elides them.
func (p *Proc) midStep() bool { return false }

// SleepChain sleeps the steps in order and returns how many completed: all
// of them, unless CutChain ended the chain early. It is observationally
// identical to
//
//	for n, s := range steps { sleep s; if CutChain was called { return n+1 } }
//
// but costs one event when undisturbed and one more per effective cut. The
// caller must not touch steps until SleepChain returns.
func (p *Proc) SleepChain(steps []Step) int {
	if len(steps) == 0 {
		return 0
	}
	e := p.eng
	c := &p.chain
	steps[0].check()
	c.steps, c.pos = steps, 0
	c.at = e.now + steps[0].D
	c.key = hopKey(e.execCtx().childKey(), steps[0].Hops-1)
	at, key := c.at, c.key
	for _, s := range steps[1:] {
		s.check()
		at += s.D
		key = hopKey(key, s.Hops)
	}
	p.chainLen = len(steps)
	p.wakeKeyed(at, key, true)
	p.pause("sleep chain")
	n := len(c.steps)
	c.steps = nil
	p.chainLen = 0
	return n
}

// CutChain ends p's chain, if it is in one, at the end of the step in
// progress. Call it from the dispatch that changes something the sleeper
// would have looked at between steps. The step in progress is the first
// whose wake the Sleep loop would not have dispatched yet: one due at a
// later instant, or at this instant under a key larger than every key
// dispatched at this instant so far (such a wake has been pending since an
// earlier instant, so it fires before the first larger key — comparing
// against the dispatching event's own key alone would misplace it behind a
// zero-delay child of a larger-keyed event). The superseded wake stays
// queued and is dropped unaccounted (Engine.fire); the process is re-woken
// at the cut step's own (at, key). Cutting a chain already in its last step
// — or cut before — changes nothing.
func (p *Proc) CutChain() {
	c := &p.chain
	last := len(c.steps) - 1
	if c.pos >= last {
		return
	}
	x := p.eng.execCtx()
	for c.at < x.now || (c.at == x.now && c.key < x.instMax) {
		c.pos++
		s := c.steps[c.pos]
		c.at += s.D
		c.key = hopKey(c.key, s.Hops)
		if c.pos == last {
			return
		}
	}
	c.steps = c.steps[:c.pos+1]
	p.gen++
	p.wakeKeyed(c.at, c.key, true)
}
