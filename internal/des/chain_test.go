package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// chainPlan is one randomized scenario: a sleeper working through steps
// (given hop by hop, so the reference can sleep them one at a time) among
// events that may disturb it.
type chainPlan struct {
	start Time     // sleeper's lead-in before the chain
	hops  [][]Time // per step, the Sleeps it stands for; the last is positive
	ints  []chainInterrupt
}

// chainInterrupt fires at an absolute instant, from an event callback or
// from a process, and may cut the sleeper itself and/or through zero-delay
// children — whose keys can undercut their parent's, the case the cut rule
// must not misplace.
type chainInterrupt struct {
	at   Time
	proc bool
	cut  bool
	kids []bool // one zero-delay child each; true = the child cuts
}

func randomChainPlan(rng *rand.Rand) chainPlan {
	pl := chainPlan{start: Time(rng.Intn(4))}
	var ends []Time
	t := pl.start
	for s, n := 0, 1+rng.Intn(6); s < n; s++ {
		hops := make([]Time, 1+rng.Intn(3))
		for h := range hops {
			hops[h] = Time(rng.Intn(3)) // interior hops may be empty
		}
		hops[len(hops)-1] = Time(1 + rng.Intn(3))
		for _, d := range hops {
			t += d
		}
		ends = append(ends, t)
		pl.hops = append(pl.hops, hops)
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		in := chainInterrupt{proc: rng.Intn(3) == 0, cut: rng.Intn(3) == 0}
		if rng.Intn(2) == 0 {
			in.at = ends[rng.Intn(len(ends))] // tie with a step's wake
		} else {
			in.at = Time(rng.Intn(int(t) + 4))
		}
		for k, nk := 0, rng.Intn(3); k < nk; k++ {
			in.kids = append(in.kids, rng.Intn(2) == 0)
		}
		pl.ints = append(pl.ints, in)
	}
	return pl
}

type chainResult struct {
	log   []string // dispatch order of every milestone, with its instant
	n     int      // steps the sleeper completed
	base  uint64   // child-key base the sleeper resumed with
	final Time     // engine clock after the run
}

// runChainPlan plays a plan. With chained set the sleeper calls SleepChain
// and interrupters CutChain; otherwise the sleeper runs the loop of Sleeps
// the chain stands for and a cut is a flag it reads at each step boundary.
func runChainPlan(pl chainPlan, chained bool) chainResult {
	e := NewEngine()
	var res chainResult
	mark := func(format string, a ...interface{}) {
		res.log = append(res.log, fmt.Sprintf(format, a...)+fmt.Sprintf("@%d", e.Now()))
	}
	var sleeper *Proc
	inChain, cutReq := false, false
	cut := func() {
		if chained {
			sleeper.CutChain()
		} else if inChain {
			cutReq = true
		}
	}
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(pl.start)
		if chained {
			steps := make([]Step, len(pl.hops))
			for i, hops := range pl.hops {
				steps[i].Hops = len(hops)
				for _, d := range hops {
					steps[i].D += d
				}
			}
			res.n = p.SleepChain(steps)
		} else {
			inChain, cutReq = true, false
			for res.n < len(pl.hops) && !cutReq {
				for _, d := range pl.hops[res.n] {
					p.Sleep(d)
				}
				res.n++
			}
			inChain = false
		}
		res.base = e.curBase
		mark("done%d", res.n)
		e.After(0, func() { mark("child") })
		p.Sleep(1)
		mark("after")
	})
	for i, in := range pl.ints {
		i, in := i, in
		act := func() {
			mark("i%d", i)
			if in.cut {
				cut()
			}
			for k, kc := range in.kids {
				k, kc := k, kc
				e.After(0, func() {
					mark("i%d.%d", i, k)
					if kc {
						cut()
					}
				})
			}
		}
		if in.proc {
			e.Spawn(fmt.Sprintf("int%d", i), func(p *Proc) {
				p.Sleep(in.at)
				act()
			})
		} else {
			e.Schedule(in.at, act)
		}
	}
	e.Run()
	res.final = e.Now()
	e.Shutdown()
	return res
}

// TestSleepChainMatchesSleepLoop is the exactness property: for random step
// lists and random interrupting events — earlier, later and same-instant
// with keys on both sides of a step's wake, raised from callbacks, from
// processes and from zero-delay children — SleepChain+CutChain returns the
// same step count at the same instant and the same position in dispatch
// order as the Sleep loop, leaves the same child-key base, and does not
// move the final clock (the superseded wake of a cut chain is dropped).
func TestSleepChainMatchesSleepLoop(t *testing.T) {
	var uncut, cutEarly, cutInLast, cutTwice int
	for seed := int64(0); seed < 4000; seed++ {
		pl := randomChainPlan(rand.New(rand.NewSource(seed)))
		want := runChainPlan(pl, false)
		got := runChainPlan(pl, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d plan %+v:\nchained %+v\nlooped  %+v", seed, pl, got, want)
		}
		cuts := 0
		for _, in := range pl.ints {
			if in.cut {
				cuts++
			}
			for _, kc := range in.kids {
				if kc {
					cuts++
				}
			}
		}
		switch {
		case cuts == 0:
			uncut++
		case got.n < len(pl.hops):
			cutEarly++
			if cuts > 1 {
				cutTwice++
			}
		default:
			cutInLast++ // every cut fell in the last step, or outside the chain
		}
	}
	if uncut == 0 || cutEarly == 0 || cutInLast == 0 || cutTwice == 0 {
		t.Fatalf("coverage: uncut %d, cut early %d, cut only in last step %d, cut more than once %d",
			uncut, cutEarly, cutInLast, cutTwice)
	}
}

// chainRing is a chain-heavy variant of ringGroup: every node sleeps a
// chain of pseudo-random length each round, its ring predecessor's timed
// message cuts it, and the node then waits for that message. It returns
// the per-node totals of completed steps.
func chainRing(engines []*Engine, k, rounds int, look Time) []*int {
	type nd struct {
		eng  *Engine
		proc *Proc
		got  int
		cond Cond
	}
	nodes := make([]*nd, k)
	for i := range nodes {
		nodes[i] = &nd{eng: engines[i%len(engines)]}
	}
	totals := make([]*int, k)
	for i := range nodes {
		i := i
		n := nodes[i]
		dst := nodes[(i+1)%k]
		total := new(int)
		totals[i] = total
		n.proc = n.eng.SpawnSeeded(Salt(11, uint64(i)), fmt.Sprintf("node%d", i), func(p *Proc) {
			rng := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
			next := func(m uint64) Time {
				rng = rng*6364136223846793005 + 1442695040888963407
				return Time((rng >> 33) % m)
			}
			var steps []Step
			for r := 0; r < rounds; r++ {
				steps = steps[:0]
				for s := next(12) + 1; s > 0; s-- {
					steps = append(steps, Step{D: 250, Hops: 1 + int(next(2))})
				}
				p.Engine().AfterOn(dst.eng, look+next(6)*250, func() {
					dst.got++
					dst.proc.CutChain()
					dst.cond.Broadcast()
				})
				*total += p.SleepChain(steps)
				n.cond.WaitFor(p, func() bool { return n.got > r })
			}
		})
	}
	return totals
}

// TestGroupChainsMatchSerial runs the chain-heavy ring on a serial engine
// and on Groups of 2 and 4 shards: fingerprint, event count, final clock
// and every node's completed-step total must agree.
func TestGroupChainsMatchSerial(t *testing.T) {
	const k, rounds = 16, 40
	const look = Time(1000)
	sum := func(totals []*int) []int {
		out := make([]int, len(totals))
		for i, p := range totals {
			out[i] = *p
		}
		return out
	}

	serial := NewEngine()
	serial.EnableTrace()
	totals := chainRing([]*Engine{serial}, k, rounds, look)
	serial.Run()
	wantFp, wantEv, wantNow := serial.TraceFingerprint(), serial.EventsExecuted(), serial.Now()
	wantSteps := sum(totals)
	serial.Shutdown()

	for _, shards := range []int{2, 4} {
		g := NewGroup(shards, look)
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = g.Shard(i)
		}
		g.Global().EnableTrace()
		totals := chainRing(engines, k, rounds, look)
		g.Global().Run()
		if fp := g.Global().TraceFingerprint(); fp != wantFp {
			t.Errorf("shards=%d: fingerprint %016x, serial %016x", shards, fp, wantFp)
		}
		if ev := g.Global().EventsExecuted(); ev != wantEv {
			t.Errorf("shards=%d: events %d, serial %d", shards, ev, wantEv)
		}
		if now := g.Global().Now(); now != wantNow {
			t.Errorf("shards=%d: now %d, serial %d", shards, now, wantNow)
		}
		if got := sum(totals); !reflect.DeepEqual(got, wantSteps) {
			t.Errorf("shards=%d: completed steps %v, serial %v", shards, got, wantSteps)
		}
		g.Global().Shutdown()
	}
}

// TestDeadlockReportLabelsChain checks that a process parked in a chain is
// reported with the number of steps it set out to sleep.
func TestDeadlockReportLabelsChain(t *testing.T) {
	e := NewEngine()
	e.Spawn("poller", func(p *Proc) {
		steps := make([]Step, 31)
		for i := range steps {
			steps[i] = Step{D: 10, Hops: 2}
		}
		p.SleepChain(steps)
	})
	e.RunUntil(15)
	if rep := deadlockReport(e); !contains(rep, "poller") || !contains(rep, "31 steps") {
		t.Errorf("report %q does not label the chained process with its step count", rep)
	}
	e.Run()
	if e.Now() != 310 {
		t.Errorf("chain ended at %d, want 310", e.Now())
	}
	e.Shutdown()
}

// chainSpinner spawns a process that sleeps the same 31-step chain n times.
func chainSpinner(e *Engine, n int) {
	e.Spawn("spinner", func(p *Proc) {
		steps := make([]Step, 31)
		for i := range steps {
			steps[i] = Step{D: 250, Hops: 2}
		}
		for i := 0; i < n; i++ {
			p.SleepChain(steps)
		}
	})
}

// BenchmarkSleepChain measures one undisturbed 31-step, 62-hop chain — an
// idle progress pass over a 32-rank mesh — per iteration: one event, no
// allocation.
func BenchmarkSleepChain(b *testing.B) {
	e := NewEngine()
	chainSpinner(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestBackToBackSleeps counts a sleep that follows a sleep with nothing
// scheduled in between, and only that.
func TestBackToBackSleeps(t *testing.T) {
	e := NewEngine()
	var stepEvents uint64
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1)            // after the start: not back to back
		p.Sleep(1)            // 1
		e.After(5, func() {}) // a scheduled event: the next sleep is not back to back
		p.Sleep(1)            // -
		n := e.EventsExecuted()
		p.SleepStep(Step{D: 2, Hops: 2}) // 2
		stepEvents = e.EventsExecuted() - n
		p.SleepChain([]Step{{D: 1, Hops: 1}, {D: 1, Hops: 1}}) // 3
	})
	e.Run()
	want := uint64(3)
	if stepEvents == 2 { // the desplain build sleeps every hop: two more
		want = 5
	}
	if got := e.BackToBackSleeps(); got != want {
		t.Fatalf("BackToBackSleeps = %d, want %d", got, want)
	}
}
