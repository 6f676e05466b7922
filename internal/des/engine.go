package des

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Engine is a discrete-event simulation kernel. It is not safe for
// concurrent use from multiple host goroutines; all interaction must happen
// from the goroutine that calls Run (or from simulated processes, which the
// engine serializes itself).
//
// Dispatch is baton-passing: the event loop runs on whichever goroutine
// currently holds control — the Run caller (the driver) or a process
// blocked in a kernel primitive. A process that pauses keeps dispatching
// events on its own goroutine until one resumes the pausing process itself,
// which costs no switch at all, or resumes another process. Every process
// is a runtime coroutine (iter.Pull) of the driver, so that hand-off is two
// direct goroutine switches — the pausing process yields the target to the
// driver's trampoline (Engine.resume), which switches into it — with no run
// queue and no scheduler in between, and the whole engine stays on the
// thread that drives it. The driver gets the baton back for good when the
// loop must stop or a process terminates.
type Engine struct {
	now       Time
	q         eventHeap // pending events, popped in (at, key, seq) order
	seq       uint64
	alive     int // spawned non-daemon processes that have not terminated
	procs     []*Proc
	deadProcs int  // dead entries still in procs; triggers compaction
	deadline  Time // events after this instant stay queued
	stopped   bool
	down      bool
	panicV    interface{}
	n         EventCounts // events dispatched, by kind

	// Lineage keys (the sharded engine's deterministic merge rule, DESIGN.md
	// §13): every event carries a key derived from the key of the event
	// whose dispatch scheduled it — hash(parent key) + child index. Same-
	// instant events order by key, and because the key depends only on the
	// causal chain back to a root, the order is identical in serial and
	// sharded execution no matter how shards interleave. Children of one
	// dispatch keep consecutive keys, so same-context scheduling order is
	// FIFO exactly as before; only unrelated contexts interleave by hash.
	curBase  uint64 // hash of the dispatching event's key
	childIdx uint64 // children scheduled by the current dispatch so far

	// instMax is the largest key dispatched at the current instant. A wakeup
	// pending since an earlier instant fires before the first same-instant
	// event with a larger key, so CutChain compares an elided wake's key
	// against this — not against the dispatching event's own key, which a
	// zero-delay child of a large-keyed event can undercut.
	instMax uint64

	group    *Group  // non-nil when this engine is a member of a sharded Group
	groupIdx int     // index within the group (len(shards) = the global engine)
	mbox     mailbox // cross-engine deposits bound for this engine (grouped mode)

	fpOn   bool   // mix a fingerprint of the dispatched schedule
	fp     uint64 // FNV-style accumulator over event timestamps
	fpBuf  []Time // grouped mode: timestamps buffered for merge-order folding
	fpHead int    // consumed prefix of fpBuf
}

// EventCounts is the number of events an engine has dispatched, by what the
// dispatch cost the harness.
type EventCounts struct {
	SelfWake uint64 `json:"self_wake"` // process wakes popped by the process itself: no switch
	Switch   uint64 `json:"switch"`    // process wakes that cost a coroutine switch
	TaskStep uint64 `json:"task_step"` // task wakes: the step ran inline on the dispatching goroutine
	Func     uint64 `json:"func"`      // closures and argument-carrying handlers
	Stale    uint64 `json:"stale"`     // wakes whose pause had already ended
	CutOff   uint64 `json:"cut_off"`   // superseded chain wakes, dropped unaccounted: not in Total
}

// Total is EventsExecuted: every accounted dispatch.
func (c EventCounts) Total() uint64 {
	return c.SelfWake + c.Switch + c.TaskStep + c.Func + c.Stale
}

// Sub returns the events counted since an earlier reading o.
func (c EventCounts) Sub(o EventCounts) EventCounts {
	return EventCounts{c.SelfWake - o.SelfWake, c.Switch - o.Switch, c.TaskStep - o.TaskStep,
		c.Func - o.Func, c.Stale - o.Stale, c.CutOff - o.CutOff}
}

// EventCounts returns the dispatched events by kind. On the global engine of
// a Group it sums over every member.
func (e *Engine) EventCounts() EventCounts {
	if g := e.group; g != nil && e == g.global {
		return g.eventCounts()
	}
	return e.n
}

// timeMax is the Run deadline: dispatch everything.
const timeMax = Time(math.MaxInt64)

// Key-domain constants. The root key seeds host-context scheduling (code
// running outside any event, e.g. test bodies); the salt base seeds the
// Salt chain so salted keys can never collide with child keys of the root.
const (
	rootKey     = 0x243F6A8885A308D3 // π, engine host-context lineage root
	saltKeyBase = 0x13198A2E03707344 // π, domain for Salt-derived keys
)

// mixKey derives a child lineage key from a parent key and a child index —
// a splitmix64-style finalizer, so sibling keys scatter over the full
// 64-bit space and same-instant dispatch order is effectively a
// deterministic pseudo-random shuffle.
func mixKey(parent, idx uint64) uint64 {
	h := parent + idx*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Salt derives a lineage key from application-chosen identity parts
// (a rank, a node/rail pair, a connection pair id). Construction-time code
// that runs outside any event — cluster building, fault scheduling — must
// seed the processes and events it creates with identity-derived salts so
// the lineage keys, and therefore same-instant dispatch order, come out
// identical no matter which engine of a sharded Group the call lands on.
func Salt(parts ...uint64) uint64 {
	h := uint64(saltKeyBase)
	for _, p := range parts {
		h = mixKey(h, p)
	}
	return h
}

// childKey mints the key for the next event scheduled by the current
// dispatch context: consecutive keys off the hashed parent, so siblings
// dispatch in scheduling order.
func (e *Engine) childKey() uint64 {
	k := e.curBase + e.childIdx
	e.childIdx++
	return k
}

// execCtx returns the engine whose event is currently dispatching. Inside a
// Group's serialized global phase the coordinator records the dispatching
// engine, so cross-engine calls (a global connection manager waking a shard
// process) mint child keys from the true causal parent; everywhere else the
// receiver is the dispatching engine.
func (e *Engine) execCtx() *Engine {
	if e.group != nil {
		if c := e.group.cur; c != nil {
			return c
		}
	}
	return e
}

// NewEngine returns an engine with the clock at the epoch.
func NewEngine() *Engine {
	return &Engine{curBase: mixKey(rootKey, 0)}
}

// Sharded reports whether this engine is a member of a Group, i.e. other
// engines may run concurrently on other OS threads. Model state that can
// be reached from a remote shard must lock exactly when this is true —
// under a lone serial engine the baton-passing dispatch already orders
// every access, and the locks would be pure hot-path overhead.
func (e *Engine) Sharded() bool { return e.group != nil }

// Now returns the current simulated time. On the global engine of a Group
// it reports the group clock: the maximum instant any member has reached.
func (e *Engine) Now() Time {
	if g := e.group; g != nil && e == g.global {
		return g.now()
	}
	return e.now
}

// EventsExecuted returns the number of events the engine has dispatched.
// On the global engine of a Group it sums over every member.
func (e *Engine) EventsExecuted() uint64 { return e.EventCounts().Total() }

// EnableTrace starts fingerprinting the dispatched event schedule: every
// event's timestamp is folded into an FNV-style accumulator as it fires.
// Two runs of the same program are behaviourally identical exactly when
// their fingerprints (and event counts) match — the determinism witness
// the seed-replay suites assert on. On the global engine of a Group this
// enables tracing group-wide; member timestamps are folded in merged
// dispatch order at window barriers, reproducing the serial fold exactly.
func (e *Engine) EnableTrace() {
	if g := e.group; g != nil && e == g.global {
		g.enableTrace()
		return
	}
	e.fpOn = true
	e.fp = 14695981039346656037 // FNV-1a offset basis
}

// TraceFingerprint returns the schedule fingerprint accumulated since
// EnableTrace. On the global engine of a Group it folds any timestamps
// still buffered and returns the merged group fingerprint.
func (e *Engine) TraceFingerprint() uint64 {
	if g := e.group; g != nil && e == g.global {
		return g.fingerprint()
	}
	return e.fp
}

// Schedule runs fn at absolute simulated time at (clamped to now).
func (e *Engine) Schedule(at Time, fn func()) {
	e.scheduleKeyed(at, e.execCtx().childKey(), Func(fn), 0)
}

// ScheduleSeeded runs fn at absolute time at under an identity-derived
// lineage key (see Salt) instead of a host-context child key. Use it for
// events scheduled outside any dispatch — fault plans, test harness pokes —
// that must order identically across serial and sharded runs.
func (e *Engine) ScheduleSeeded(salt uint64, at Time, fn func()) {
	e.scheduleKeyed(at, salt, Func(fn), 0)
}

func (e *Engine) scheduleKeyed(at Time, key uint64, h Handler, arg uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(at, key, e.seq, slot{h: h, arg: arg})
}

// After runs fn after delay d.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// AfterOn runs fn after delay d on engine dst. With dst the receiver (or
// no Group at all) this is After. Across engines of a Group it deposits the
// event into dst's mailbox — the only legal way for one shard's dispatch to
// affect another — and requires d to be at least the group lookahead, so
// the deposit lands beyond the current window and the receiving shard
// cannot have dispatched past it. The child key is minted from the calling
// dispatch context and carried with the deposit, so the event orders among
// dst's same-instant events exactly as it would have serially.
func (e *Engine) AfterOn(dst *Engine, d Time, fn func()) { e.AfterOnArg(dst, d, Func(fn), 0) }

// AfterOnArg is AfterOn for an event that carries its argument: h.Handle(arg)
// runs on dst after delay d, and scheduling it allocates nothing.
func (e *Engine) AfterOnArg(dst *Engine, d Time, h Handler, arg uint64) {
	src := e.execCtx()
	if dst == e || dst == src {
		dst.scheduleKeyed(e.now+d, src.childKey(), h, arg)
		return
	}
	if e.group == nil || dst.group != e.group {
		panic("des: AfterOn across engines that are not in the same group")
	}
	if d < e.group.look {
		panic("des: AfterOn delay below group lookahead")
	}
	dst.mbox.put(boxEvent{at: e.now + d, key: src.childKey(), h: h, arg: arg})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Shutdown terminates every remaining process goroutine and drops the
// event queue, releasing everything the simulation references. A finished
// simulation otherwise pins its entire state: daemon coroutines (hardware
// service engines) stay parked in their last pause and keep nodes, adapters
// and application buffers reachable. Each started process is unwound from
// that pause through its own deferred calls; one that never started has no
// goroutine to unwind. Call Shutdown when a simulation will not be used
// again; the engine is dead afterwards.
func (e *Engine) Shutdown() {
	if g := e.group; g != nil && e == g.global {
		g.shutdown()
		return
	}
	e.shutdownOne()
}

func (e *Engine) shutdownOne() {
	if e.down {
		return
	}
	e.down = true
	for _, p := range e.procs {
		if p.stop != nil { // started and not dead
			p.stop() // yield reports false in the parked pause, which unwinds
		}
	}
	e.procs = nil
	e.deadProcs = 0
	e.q.clear()
}

// account advances the clock to the event at (at, key) and charges it to
// the fingerprint. Every popped event, stale wakeups included, is accounted
// (and counted by kind in fire), so the trace is comparable across engine
// versions. The dispatching event's key becomes the lineage parent for
// everything the dispatch schedules. In grouped mode timestamps are
// buffered instead of folded: shards dispatch concurrently, so the group
// folds the merged timestamp stream at window barriers to reproduce the
// serial fold order.
func (e *Engine) account(at Time, key uint64) {
	if at != e.now {
		e.now = at
		e.instMax = key
	} else if key > e.instMax {
		e.instMax = key
	}
	e.curBase = mixKey(key, 0)
	e.childIdx = 0
	if e.fpOn {
		if e.group != nil {
			e.fpBuf = append(e.fpBuf, at)
		} else {
			e.fp = (e.fp ^ uint64(at)) * 1099511628211
		}
	}
}

// advance moves the clock forward to t without dispatching anything.
func (e *Engine) advance(t Time) {
	if e.now < t {
		e.now = t
		e.instMax = 0
	}
}

// fire dispatches one popped event on the calling goroutine and counts it
// by kind — except the wake of a parked coroutine process, which it returns
// for the caller to count and switch into (or, in runOn, to recognise as its
// own). The superseded wake of a chain that CutChain ended early is dropped
// before it can touch the clock, the event count or the fingerprint: the
// Sleep loop the chain stands for never scheduled it — unlike an ordinary
// stale wakeup, which the loop would have scheduled too.
func (e *Engine) fire(ev *event) *Proc {
	w, _ := ev.h.(*wake)
	switch p := (*Proc)(w); {
	case p == nil:
		e.account(ev.at, ev.key)
		e.n.Func++
		ev.h.Handle(ev.arg)
	case p.gen != ev.arg && ev.chain:
		e.n.CutOff++
	case p.dead || p.gen != ev.arg || !p.waiting:
		e.account(ev.at, ev.key)
		e.n.Stale++
	case p.step != nil:
		e.account(ev.at, ev.key)
		e.n.TaskStep++
		e.stepTask(p)
	default:
		e.account(ev.at, ev.key)
		return p
	}
	return nil
}

// runDriver is the dispatch loop on the Run caller's goroutine. Handing a
// wakeup to a process lends it the baton until the process chain returns it
// (a stop condition was reached, or a process terminated).
func (e *Engine) runDriver() {
	var ev event
	for !e.stopped && e.q.popLE(e.deadline, &ev) {
		if p := e.fire(&ev); p != nil {
			e.n.Switch++
			e.resume(p)
		}
	}
	e.reraise() // a task step that panicked stops the loop
}

// resume is the driver's trampoline: it switches into p, and then into
// whichever process each one names when it yields, until one yields nil (a
// stop condition) or terminates. A process that died by panic is re-raised
// here, on the driver's goroutine.
func (e *Engine) resume(p *Proc) {
	for p != nil {
		if p.next == nil {
			p.start()
		}
		p, _ = p.next()
	}
	e.reraise()
}

// reraise raises, on the driver's goroutine, the panic a process body or a
// task step recorded.
func (e *Engine) reraise() {
	if v := e.panicV; v != nil {
		e.panicV = nil
		panic(v)
	}
}

// runOn is the dispatch loop on a paused process's goroutine. It returns
// when p's own wakeup is dispatched: either p pops it itself (no switch at
// all — the dominant case for sleep/poll cycles) or another holder pops it
// and the trampoline switches back into p. Popping another process's wakeup
// yields that process to the trampoline; a stop condition yields nil, which
// returns the baton to the driver and leaves p parked until its wakeup
// eventually arrives (a later Run) or Shutdown unwinds it.
func (e *Engine) runOn(p *Proc) {
	var next *Proc // the process to resume; nil on a stop condition
	var ev event
	for !e.stopped && e.q.popLE(e.deadline, &ev) {
		if next = e.fire(&ev); next == p {
			e.n.SelfWake++
			return
		} else if next != nil {
			e.n.Switch++
			break
		}
	}
	if !p.yield(next) {
		panic(shutdownUnwind{})
	}
}

// Run dispatches events until the queue drains, Stop is called, or a
// simulated process panics (the panic is re-raised on the caller's
// goroutine). If processes remain alive when the queue drains, Run panics
// with a deadlock report naming each blocked process — a protocol hang in
// the layers above is a bug, and silent termination would mask it.
func (e *Engine) Run() {
	if g := e.group; g != nil && e == g.global {
		g.run(timeMax)
		return
	}
	e.stopped = false
	e.deadline = timeMax
	e.runDriver()
	if !e.stopped && e.alive > 0 {
		panic("des: deadlock: " + e.deadlockReport())
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline. Processes may still be alive; this is how open-ended
// server-style simulations are driven.
func (e *Engine) RunUntil(deadline Time) {
	if g := e.group; g != nil && e == g.global {
		g.run(deadline)
		return
	}
	e.stopped = false
	e.deadline = deadline
	e.runDriver()
	e.advance(deadline)
}

func (e *Engine) deadlockReport() string {
	var names []string
	for _, p := range e.procs {
		if p.daemon || p.dead || !p.waiting {
			continue
		}
		names = append(names, p.blockSite())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Sprintf("%d process(es) alive but none blocked on a kernel primitive", e.alive)
	}
	return fmt.Sprintf("%d process(es) blocked: %s", len(names), strings.Join(names, ", "))
}

// Proc is a simulated process. Exactly one Proc executes at any instant;
// kernel primitives are the only legal blocking points.
//
// A process is a coroutine of its engine's driver, created when its start
// event fires. Control transfers are coroutine switches, and happen only
// when the baton actually changes goroutines: a process that pauses keeps
// dispatching on its own goroutine (Engine.runOn), so resuming itself costs
// nothing and resuming another process costs a yield to the driver's
// trampoline and its switch into the target. Exactly one goroutine — the
// driver or one process — runs at any moment, which keeps the shared engine
// state race-free.
type Proc struct {
	eng  *Engine
	name string
	body func(p *Proc) // until the process starts
	step func(t *Task) // non-nil: a stackless process (task.go), never a coroutine
	acq  bool          // queued on a Resource (Resource.AcquireTask)

	// The coroutine (iter.Pull), from start to death: next switches into the
	// process, yield switches back naming the process to resume next (nil:
	// the baton returns to the driver), stop makes the parked yield report
	// false so the process unwinds.
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool

	dead    bool
	daemon  bool
	waiting bool
	where   string // block site label for deadlock reports
	gen     uint64 // pause generation; stale wakeups are dropped

	chain    chainState // the SleepChain in progress, if any (chain.go)
	chainLen int        // steps that chain was started with, for block-site labels
}

// blockSite labels the process and where it is blocked, for deadlock
// reports.
func (p *Proc) blockSite() string {
	if p.chainLen > 0 {
		return fmt.Sprintf("%s (%s, %d steps)", p.name, p.where, p.chainLen)
	}
	return fmt.Sprintf("%s (%s)", p.name, p.where)
}

// Spawn creates a process running body and schedules it to start at the
// current simulated time. The name appears in deadlock reports.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false, e.execCtx().childKey())
}

// SpawnSeeded is Spawn with an identity-derived lineage key (see Salt) for
// the start event. Construction-time spawns — rank processes, connection
// managers — use it so process start order at an instant is identical
// across serial and sharded execution.
func (e *Engine) SpawnSeeded(salt uint64, name string, body func(p *Proc)) *Proc {
	return e.spawn(name, body, false, salt)
}

func (e *Engine) spawn(name string, body func(p *Proc), daemon bool, key uint64) *Proc {
	return e.spawnProc(&Proc{name: name, body: body, daemon: daemon}, key)
}

func (e *Engine) spawnProc(p *Proc, key uint64) *Proc {
	p.eng, p.waiting, p.where = e, true, "start"
	if !p.daemon {
		e.alive++
	}
	e.addProc(p)
	// The start is an ordinary wakeup bound to generation 0; its dispatch
	// creates the coroutine (Engine.resume), so a process whose start never
	// fires — Shutdown dropped it with the queue — costs no goroutine.
	p.wakeKeyed(e.now, key, false)
	return p
}

// die retires a process whose body returned, panicked or was unwound, or a
// task whose step returned without parking.
func (p *Proc) die() {
	p.dead = true
	p.eng.deadProcs++
	if !p.daemon {
		p.eng.alive--
	}
}

// shutdownUnwind is the panic that unwinds a parked process when Shutdown
// stops its coroutine. It cannot be runtime.Goexit: iter.Pull propagates a
// Goexit to the caller of next/stop, which would take the driver down too.
type shutdownUnwind struct{}

// addProc records a process for Shutdown and deadlock reporting. Dead
// entries are compacted away once they dominate the slice, so churn-heavy
// runs (thousands of short-lived connection dials) keep the slice — and
// every Shutdown walk — proportional to the live population.
func (e *Engine) addProc(p *Proc) {
	if e.deadProcs > 64 && e.deadProcs > len(e.procs)/2 {
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = live
		e.deadProcs = 0
	}
	e.procs = append(e.procs, p)
}

// pause blocks the process until a wakeup targeting this pause generation
// fires. where labels the block site for deadlock reports. It is park and
// Block without Block's loop: every process switch comes through here.
func (p *Proc) pause(where string) {
	p.park(where)
	p.eng.runOn(p)
	p.waiting = false
	p.gen++
}

// Block blocks a parked process until the wakeup of that pause fires; the
// pausing goroutine becomes the dispatcher (Engine.runOn) meanwhile. With
// Task it lets a process run a task-form state machine: pass it p.Task(),
// call Block wherever it reports that it parked.
func (p *Proc) Block() {
	for {
		p.eng.runOn(p)
		p.waiting = false
		p.gen++
		if !p.midStep() {
			return
		}
	}
}

// Task returns the process as the task a task-form state machine parks.
func (p *Proc) Task() *Task { return (*Task)(p) }

// park marks the process blocked at where; the next wakeup bound to this
// pause generation resumes it.
func (p *Proc) park(where string) {
	p.where = where
	p.waiting = true
}

// wake schedules the process to resume at absolute time at. A wakeup is
// bound to the pause generation current at the time of the call: if the
// process has since resumed (another wakeup won the race) or terminated,
// the event is a no-op. A wakeup issued while the process is running (e.g.
// Sleep schedules its own wakeup before pausing) targets the next pause.
func (p *Proc) wake(at Time) {
	p.wakeKeyed(at, p.eng.execCtx().childKey(), false)
}

// wakeKeyed is wake under an explicit lineage key; chain marks the wake of
// a SleepChain, which CutChain may supersede.
func (p *Proc) wakeKeyed(at Time, key uint64, chain bool) {
	e := p.eng
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.q.push(at, key, e.seq, slot{h: (*wake)(p), arg: p.gen, chain: chain})
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep blocks the process for duration d of simulated time. Negative
// durations sleep zero time but still yield, giving other ready processes a
// chance to run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.sleepKeyed(p.eng.now+d, p.eng.execCtx().childKey())
}

// sleepKeyed pauses the process until its wake at (at, key). When that wake
// would be the next event popped anyway, it is dispatched on the spot, as
// runOn would have popped it: the sequence number is consumed, the event
// accounted and counted as a SelfWake, the pause generation bumped — so the
// clock, the fingerprint and every later key are those of the queued path,
// which only the queue round trip separates from this one.
func (p *Proc) sleepKeyed(at Time, key uint64) {
	e := p.eng
	if !e.wakesSelf(at, key) {
		p.wakeKeyed(at, key, false)
		p.pause("sleep")
		return
	}
	e.seq++
	e.account(at, key)
	e.n.SelfWake++
	p.gen++
}

// wakesSelf reports whether a wake pushed now at (at, key) would be the next
// event the running process pops: the engine is dispatching (not stopped,
// at within the deadline, not in a Group's serialized phase, whose
// coordinator must see every event) and nothing queued orders before it.
// A queued event at the same (at, key) was pushed earlier and goes first.
func (e *Engine) wakesSelf(at Time, key uint64) bool {
	if e.stopped || at > e.deadline || e.group != nil && e.group.cur != nil {
		return false
	}
	qat, qkey, ok := e.q.peekKey()
	return !ok || at < qat || at == qat && key < qkey
}

// Yield lets any other process scheduled at the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }
