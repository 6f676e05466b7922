package des

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// A random program over the kernel primitives, run with its bodies as
// coroutine processes and again as stackless tasks. A body is a list of
// ops; the Proc form interprets it with blocking calls, the Task form with
// a program counter and the parking calls — the same kernel calls in the
// same order, so everything observable must be equal.

type opKind int

const (
	opSleep     opKind = iota // Sleep(d)
	opSleepStep               // SleepStep{d, hops}
	opPut                     // queue[x].Put
	opGet                     // queue[x].Get
	opSignal                  // cond[x].Signal
	opBroadcast               // cond[x].Broadcast
	opWait                    // cond[x].Wait
	opAcquire                 // res[x].Acquire(n) … Sleep(d) … Release(n)
	opRelease
	opCross // AfterOnArg to the next body's engine: a token into its queue 0
)

type op struct {
	kind opKind
	x, n int
	d    Time
	hops int
}

type taskProgram struct {
	bodies [][]op
	look   Time
}

const (
	progQueues = 3
	progConds  = 2
)

// randomTaskProgram builds bodies that cannot deadlock: every Get is paid
// for by a Put scheduled from a plain event, waits are woken by a final
// broadcast storm, and resources are released by their holder.
func randomTaskProgram(rng *rand.Rand) taskProgram {
	pl := taskProgram{look: 50}
	nb := 2 + rng.Intn(5)
	for b := 0; b < nb; b++ {
		var body []op
		for i, n := 0, 4+rng.Intn(20); i < n; i++ {
			o := op{x: rng.Intn(progQueues), d: Time(rng.Intn(40))}
			switch rng.Intn(10) {
			case 0, 1:
				o.kind = opSleep
			case 2:
				o.kind, o.hops = opSleepStep, 1+rng.Intn(3)
				o.d++ // a step's last hop must be positive to be exact (Step)
			case 3:
				o.kind = opPut
			case 4:
				o.kind = opGet
			case 5:
				o.kind, o.x = opSignal, rng.Intn(progConds)
			case 6:
				o.kind, o.x = opBroadcast, rng.Intn(progConds)
			case 7:
				o.kind, o.x = opWait, rng.Intn(progConds)
			case 8:
				o.kind, o.x, o.n = opAcquire, rng.Intn(2), 1
				if o.x == 1 { // the capacity-4 resource: stale second wakes
					o.n += rng.Intn(3)
				}
				body = append(body, o, op{kind: opSleep, d: Time(rng.Intn(30))})
				o = op{kind: opRelease, x: o.x, n: o.n}
			case 9:
				o.kind, o.d = opCross, pl.look+o.d
			}
			body = append(body, o)
		}
		pl.bodies = append(pl.bodies, body)
	}
	return pl
}

// progWorld is the shared state of one engine's bodies. Bodies of a Group
// run are split across two shards; each shard has its own world, and opCross
// is the only op that reaches the other one — through the mailbox, at the
// lookahead or later.
type progWorld struct {
	eng    *Engine
	queues [progQueues]Queue[int]
	conds  [progConds]Cond
	res    [2]*Resource // capacity 1 and capacity 4
	trace  []string
}

func newProgWorld(e *Engine) *progWorld {
	return &progWorld{eng: e, res: [2]*Resource{NewResource(1), NewResource(4)}}
}

func (w *progWorld) Handle(arg uint64) { w.queues[0].Put(int(arg)) }

func (w *progWorld) log(b, pc int) {
	w.trace = append(w.trace, fmt.Sprintf("%d.%d@%d", b, pc, w.eng.now))
}

// nonBlocking executes the ops that are the same call in both forms.
func (w *progWorld) nonBlocking(o op, next *progWorld) {
	switch o.kind {
	case opPut:
		w.queues[o.x].Put(1)
	case opSignal:
		w.conds[o.x].Signal()
	case opBroadcast:
		w.conds[o.x].Broadcast()
	case opRelease: // unit by unit: the head waiter is woken more than once
		for i := 0; i < o.n; i++ {
			w.res[o.x].Release(1)
		}
	case opCross:
		w.eng.AfterOnArg(next.eng, o.d, next, 7)
	}
}

func (w *progWorld) runProc(p *Proc, b int, body []op, next *progWorld) {
	for pc, o := range body {
		w.log(b, pc)
		switch o.kind {
		case opSleep:
			p.Sleep(o.d)
		case opSleepStep:
			p.SleepStep(Step{D: o.d, Hops: o.hops})
		case opGet:
			w.queues[o.x].Get(p)
		case opWait:
			w.conds[o.x].Wait(p)
		case opAcquire:
			w.res[o.x].Acquire(p, o.n)
		default:
			w.nonBlocking(o, next)
		}
	}
}

// taskBody is the Task form of runProc: pc is what the process keeps on its
// stack, again marks a blocking op that parked and must be re-entered.
type taskBody struct {
	w, next *progWorld
	b       int
	body    []op
	pc      int
	again   bool
}

func (tb *taskBody) step(t *Task) {
	w := tb.w
	for ; tb.pc < len(tb.body); tb.pc++ {
		o := tb.body[tb.pc]
		if tb.again { // woken inside op pc
			tb.again = false
			switch o.kind {
			case opGet:
				if _, ok := w.queues[o.x].GetTask(t); !ok {
					tb.again = true
					return
				}
			case opAcquire:
				if !w.res[o.x].AcquireTask(t, o.n) {
					tb.again = true
					return
				}
			}
			continue
		}
		w.log(tb.b, tb.pc)
		tb.again = true
		switch o.kind {
		case opSleep:
			t.Sleep(o.d)
			return
		case opSleepStep:
			t.SleepStep(Step{D: o.d, Hops: o.hops})
			return
		case opGet:
			if _, ok := w.queues[o.x].GetTask(t); !ok {
				return
			}
		case opWait:
			w.conds[o.x].WaitTask(t)
			return
		case opAcquire:
			if !w.res[o.x].AcquireTask(t, o.n) {
				return
			}
		default:
			w.nonBlocking(o, tb.next)
		}
		tb.again = false
	}
}

type progResult struct {
	events, stale uint64
	fp            uint64
	now           Time
	trace         string
}

// runTaskProgram runs pl with its bodies as tasks or as processes, on one
// engine or on a two-shard Group (body b on shard b%2).
func runTaskProgram(pl taskProgram, tasks, sharded bool) progResult {
	var root *Engine
	var worlds []*progWorld
	if sharded {
		g := NewGroup(2, pl.look)
		root = g.Global()
		worlds = []*progWorld{newProgWorld(g.Shard(0)), newProgWorld(g.Shard(1))}
	} else {
		root = NewEngine()
		worlds = []*progWorld{newProgWorld(root), newProgWorld(root)}
	}
	root.EnableTrace()
	puts := [2][progQueues]int{}
	for b, body := range pl.bodies {
		w, next := worlds[b%2], worlds[(b+1)%2]
		for _, o := range body {
			if o.kind == opGet {
				puts[b%2][o.x]++
			}
		}
		name, salt := fmt.Sprintf("body%d", b), Salt(21, uint64(b))
		if tasks {
			tb := &taskBody{w: w, next: next, b: b, body: body}
			w.eng.SpawnTaskSeeded(salt, name, false, tb.step)
		} else {
			b, body := b, body
			w.eng.SpawnSeeded(salt, name, func(p *Proc) { w.runProc(p, b, body, next) })
		}
	}
	// Pay for every Get, and end with a broadcast storm for the waiters.
	for i, w := range worlds {
		w := w
		for x, n := range puts[i] {
			x := x
			for k := 0; k < n; k++ {
				w.eng.ScheduleSeeded(Salt(22, uint64(i), uint64(x), uint64(k)), Time(37*k), func() { w.queues[x].Put(2) })
			}
		}
		for k := 0; k < 200; k++ {
			w.eng.ScheduleSeeded(Salt(23, uint64(i), uint64(k)), Time(500+100*k), func() {
				for c := range w.conds {
					w.conds[c].Broadcast()
				}
			})
		}
	}
	root.Run()
	r := progResult{events: root.EventsExecuted(), stale: root.EventCounts().Stale, fp: root.TraceFingerprint(), now: root.Now()}
	if !sharded { // one shared trace only exists on one engine
		r.trace = fmt.Sprint(worlds[0].trace, worlds[1].trace)
	}
	root.Shutdown()
	return r
}

// TestTaskMatchesProc is the exactness property of the stackless process: a
// body ported from Proc to Task dispatches the same events at the same
// instants in the same order, serial and sharded.
func TestTaskMatchesProc(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var stale uint64
	for i := 0; i < 300; i++ {
		pl := randomTaskProgram(rng)
		ref := runTaskProgram(pl, false, false)
		stale += ref.stale
		for _, mode := range []struct{ tasks, sharded bool }{{true, false}, {false, true}, {true, true}} {
			got := runTaskProgram(pl, mode.tasks, mode.sharded)
			if mode.sharded {
				got.trace = ref.trace
			}
			if got != ref {
				t.Fatalf("program %d tasks=%v sharded=%v:\n got  events=%d (%d stale) fp=%x now=%d\n want events=%d (%d stale) fp=%x now=%d\n got  %s\n want %s",
					i, mode.tasks, mode.sharded, got.events, got.stale, got.fp, got.now, ref.events, ref.stale, ref.fp, ref.now, got.trace, ref.trace)
			}
		}
	}
	if stale == 0 {
		t.Error("no program dispatched a stale wake: the property does not cover them")
	}
}

// TestTaskStaleResourceWake pins the second wake of a capacity > 1 resource:
// two Releases in one dispatch wake the head waiter twice; the second wake
// is dispatched — one event — and dropped, for a task as for a process.
func TestTaskStaleResourceWake(t *testing.T) {
	for _, tasks := range []bool{false, true} {
		e := NewEngine()
		r := NewResource(4)
		r.inUse = 4
		got := 0
		if tasks {
			e.SpawnTask("w", false, func(t *Task) {
				if r.AcquireTask(t, 1) {
					got++
				}
			})
		} else {
			e.Spawn("w", func(p *Proc) { r.Acquire(p, 1); got++ })
		}
		e.Schedule(5, func() { r.Release(1); r.Release(1) })
		e.Run()
		if n := e.EventCounts(); got != 1 || n.Stale != 1 || n.Total() != 4 {
			t.Errorf("tasks=%v: acquired %d times, counts %+v; want 1 acquisition, 1 stale wake, 4 events", tasks, got, n)
		}
	}
}

// TestTaskLifecycle parks a task in every primitive and checks what a
// stackless process promises: no goroutine while it runs, nothing for
// Shutdown to unwind, and deadlock reports that name it.
func TestTaskLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var (
		cond  Cond
		queue Queue[int]
		res   = NewResource(1)
	)
	res.inUse = 1
	parks := map[string]func(t *Task){
		"sleep":     func(t *Task) { t.Sleep(Second) },
		"sleepstep": func(t *Task) { t.SleepStep(Step{D: Second, Hops: 2}) },
		"cond":      func(t *Task) { cond.WaitTask(t) },
		"queue":     func(t *Task) { queue.GetTask(t) },
		"resource":  func(t *Task) { res.AcquireTask(t, 1) },
	}
	for name, park := range parks {
		e.SpawnTask(name, name != "cond", park)
	}
	e.RunUntil(10)
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines with five tasks parked, baseline %d", n, base)
	}
	if rep := e.deadlockReport(); rep != "1 process(es) blocked: cond (cond.Wait)" {
		t.Errorf("deadlock report %q", rep)
	}
	e.Shutdown()
	if n := goroutinesSettle(base); n > base {
		t.Errorf("%d goroutines after Shutdown, baseline %d", n, base)
	}
}

// TestTaskPanicNamesTask raises a panic in a task step dispatched by the
// serial driver, by a process's dispatch loop, in a Group window and in a
// fused instant: Run's caller sees it, named after the task, and the
// dispatching process is not the one that dies.
func TestTaskPanicNamesTask(t *testing.T) {
	want := `des: task "boom" panicked: kaboom`
	boom := func(e *Engine) {
		e.SpawnTaskSeeded(Salt(5), "boom", true, func(t *Task) {
			if t.eng.now == 0 {
				t.Sleep(5)
				return
			}
			panic("kaboom")
		})
	}
	run := func(name string, root *Engine) {
		defer func() {
			if r := recover(); fmt.Sprint(r) != want {
				t.Errorf("%s: recovered %v, want %s", name, r, want)
			}
			root.Shutdown()
		}()
		root.Run()
		t.Errorf("%s: Run returned", name)
	}

	e := NewEngine()
	boom(e)
	run("driver", e)

	e = NewEngine()
	boom(e)
	survived := false
	e.Spawn("bystander", func(p *Proc) {
		defer func() { survived = recover() == shutdownUnwind{} }()
		p.Sleep(10) // dispatches boom's second step from its own loop
	})
	run("process loop", e)
	if !survived {
		t.Error("the dispatching process was not parked until Shutdown")
	}

	g := NewGroup(2, 1000)
	boom(g.Shard(1))
	run("window", g.Global())

	g = NewGroup(2, 1000)
	boom(g.Shard(0))
	g.Global().ScheduleSeeded(Salt(6), 5, func() {}) // makes instant 5 fused
	run("fused instant", g.Global())
}

// BenchmarkTaskStep is BenchmarkProcHandoff for a task: one wake event per
// iteration, the step run inline. Expected near
// BenchmarkEngineScheduleDispatch — there is nothing but the queue left.
func BenchmarkTaskStep(b *testing.B) {
	e := NewEngine()
	n := 0
	e.SpawnTask("spinner", false, func(t *Task) {
		if n < b.N {
			n++
			t.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
