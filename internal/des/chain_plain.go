//go:build desplain

package des

// The reference form of chain.go: every hop is its own Sleep and a cut is a
// flag the loop reads at the next step boundary. The suites that compare
// the two builds (internal/mpi's exactness golden) are what machine-checks
// the claim that eliding the wakes changes no simulated result.

// chainState is the SleepChain in progress on a process.
type chainState struct {
	active, cut bool
	hops        int  // Sleeps left in the Task.SleepStep in progress
	d           Time // and the duration the last of them carries
}

// SleepStep sleeps one step: its hops as separate Sleeps, the last carrying
// the whole duration — where the hops before it fall inside the step is not
// observable, the step's final wake and the key base it leaves are.
func (p *Proc) SleepStep(s Step) {
	s.check()
	for h := 1; h < s.Hops; h++ {
		p.Sleep(0)
	}
	p.Sleep(s.D)
}

// SleepStep parks the task for one step, hop by hop: stepTask lets midStep
// sleep the next hop at every wake before the last.
func (t *Task) SleepStep(s Step) {
	s.check()
	t.chain.hops, t.chain.d = s.Hops, s.D
	(*Proc)(t).midStep()
}

// midStep sleeps the next hop of the task's step in progress; it reports
// false when none is left, i.e. the wake just dispatched ended the step.
func (p *Proc) midStep() bool {
	c := &p.chain
	if c.hops == 0 {
		return false
	}
	c.hops--
	d := Time(0)
	if c.hops == 0 {
		d = c.d
	}
	(*Task)(p).Sleep(d)
	return true
}

// SleepChain sleeps the steps in order, stopping after the first step
// during (or before) which CutChain was called; it returns the number of
// steps completed.
func (p *Proc) SleepChain(steps []Step) int {
	p.chain = chainState{active: true}
	p.chainLen = len(steps)
	n := 0
	for n < len(steps) && !p.chain.cut {
		p.SleepStep(steps[n])
		n++
	}
	p.chain = chainState{}
	p.chainLen = 0
	return n
}

// CutChain ends p's chain, if it is in one, at the end of the step in
// progress.
func (p *Proc) CutChain() {
	if p.chain.active {
		p.chain.cut = true
	}
}
