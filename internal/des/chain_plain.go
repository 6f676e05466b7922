//go:build desplain

package des

// The reference form of chain.go: every hop is its own Sleep and a cut is a
// flag the loop reads at the next step boundary. The suites that compare
// the two builds (internal/mpi's exactness golden) are what machine-checks
// the claim that eliding the wakes changes no simulated result.

// chainState is the SleepChain in progress on a process.
type chainState struct {
	active, cut bool
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
