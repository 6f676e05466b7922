package des

// Sharded execution (DESIGN.md §13). A Group partitions a simulation across
// N shard engines — each with its own event queue and baton-passing driver,
// shard 0 driven by the coordinator and every other shard by a worker
// goroutine that lives for the run — plus one serialized "global" engine for
// cross-shard control work (connection managers, setup). Shards run
// conservatively in lockstep windows [T, T+lookahead): the fabric guarantees
// no event crosses shards faster than the lookahead (WireLatency), so
// within a window shards cannot affect each other and may dispatch in
// parallel. Cross-shard effects travel as timed deposits through per-engine
// MPSC mailboxes and are folded into the destination queue at the next
// window barrier, always beyond the receiver's dispatch horizon.
//
// Determinism: every event carries a lineage key (engine.go) that is a pure
// function of its causal history, and each queue dispatches in (at, key,
// seq) order. Same-instant events on one shard therefore fire in exactly
// the order the serial engine would have fired them, and instants where the
// global engine has work — the only instants at which same-time cross-shard
// interaction is possible — are dispatched "fused": the coordinator
// interleaves the ready events of all engines in global key order, exactly
// reproducing the serial schedule. The result is a TraceFingerprint
// bit-identical to the single-engine run at any shard count.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// boxEvent is one cross-engine deposit: a timed handler call carrying the
// lineage key minted by the scheduling dispatch.
type boxEvent struct {
	at  Time
	key uint64
	h   Handler
	arg uint64
}

// mailbox buffers deposits bound for one engine. Producers are shard
// drivers mid-window (and the coordinator during fused instants); the sole
// consumer is the coordinator at window barriers.
type mailbox struct {
	mu    sync.Mutex
	evs   []boxEvent
	spare []boxEvent // drained buffer, reused to keep steady state alloc-free
}

func (m *mailbox) put(ev boxEvent) {
	m.mu.Lock()
	m.evs = append(m.evs, ev)
	m.mu.Unlock()
}

func (m *mailbox) take() []boxEvent {
	m.mu.Lock()
	evs := m.evs
	m.evs = m.spare[:0]
	m.spare = evs
	m.mu.Unlock()
	return evs
}

// Group is a set of shard engines plus a global engine coordinated by
// conservative-lookahead windows. Build the simulation against the member
// engines, then drive the whole group through the global engine's Run /
// RunUntil / Shutdown — they delegate here.
type Group struct {
	shards []*Engine
	global *Engine
	all    []*Engine // shards then global
	look   Time      // lookahead: minimum cross-shard latency

	// cur is the engine whose event is currently dispatching, maintained by
	// the coordinator during serialized phases only; nil while shard windows
	// run in parallel (each driver then is its own context).
	cur *Engine

	// ctls holds deposited control calls: host-level work (a connection
	// dial) requested from a shard's dispatch but executed in the serialized
	// global phase at the instant it was requested. The body must use only
	// seeded primitives (SpawnSeeded, ScheduleSeeded) so its effects order
	// identically to the serial engine's inline execution.
	ctls mailbox

	fpOn bool
	fp   uint64 // merged-order fingerprint over all member schedules

	// The window machinery: one worker per shard after the first, started
	// by a run's first window and joined before the run returns.
	workers []worker
	live    bool          // the workers' goroutines are running
	horizon Time          // the posted window's end H; 0 posts a quit
	spin    time.Duration // spinBudget; a test sets 0 to park at every handoff
	panics  []any
	wg      sync.WaitGroup
	stats   WindowStats   // all but Parks
	parks   atomic.Uint64 // WindowStats.Parks, counted on both sides
}

// WindowStats counts a Group's window machinery over its life.
type WindowStats struct {
	Windows uint64 // parallel shard windows
	Fused   uint64 // fused instants
	Workers uint64 // worker goroutines started
	Parks   uint64 // handoff waits that outlasted the spin and parked
}

// Sub returns the counts since an earlier reading o.
func (c WindowStats) Sub(o WindowStats) WindowStats {
	return WindowStats{c.Windows - o.Windows, c.Fused - o.Fused, c.Workers - o.Workers, c.Parks - o.Parks}
}

// WindowStats reports the window machinery of the Group this is the global
// engine of; an engine outside a Group has none.
func (e *Engine) WindowStats() WindowStats {
	if g := e.group; g != nil && e == g.global {
		st := g.stats
		st.Parks = g.parks.Load()
		return st
	}
	return WindowStats{}
}

// worker is the handoff with one shard worker: start counts the windows
// posted to it, done the windows it has finished.
type worker struct{ start, done signal }

// spinBudget is how long a handoff wait spins before it parks, which costs
// an OS wake-up of tens of µs. Of CG.S np=256 shards=2's 891 windows, 12–25
// park at 1 ms, 52–120 at 200 µs, ≈400 at 50 µs and 1–2 at 5 ms (2 vCPUs).
const spinBudget = time.Millisecond

// signal hands a count from one poster to one waiter without the OS
// scheduler: the waiter spins, yielding its P, for up to the group's spin,
// then parks on a one-token channel. It raises sleep before it looks at gen
// a last time, and the poster looks at sleep after it bumps gen, so one of
// the two sees the other: no post is lost.
type signal struct {
	gen   atomic.Uint64
	sleep atomic.Bool
	wake  chan struct{}
}

func (s *signal) post() {
	s.gen.Add(1)
	if s.sleep.Load() && s.sleep.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

// wait returns once gen has reached n, reading the clock every 16th yield.
// A token can be a late one from the previous post, so a woken waiter
// looks again.
func (s *signal) wait(n uint64, g *Group) {
	var t0 time.Time
	for i := 0; s.gen.Load() < n; i++ {
		if i == 0 {
			t0 = time.Now()
		} else if i%16 != 1 || time.Since(t0) < g.spin {
			runtime.Gosched()
		} else {
			g.parks.Add(1)
			s.sleep.Store(true)
			if s.gen.Load() < n || !s.sleep.CompareAndSwap(true, false) {
				<-s.wake
			}
		}
	}
}

// NewGroup builds a group of shards shard engines and one global engine
// with the given conservative lookahead (the minimum simulated latency of
// any cross-shard interaction).
func NewGroup(shards int, lookahead Time) *Group {
	if shards < 1 {
		panic("des: NewGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic("des: NewGroup needs a positive lookahead")
	}
	g := &Group{look: lookahead, spin: spinBudget}
	for i := 0; i < shards; i++ {
		e := NewEngine()
		e.group, e.groupIdx = g, i
		g.shards = append(g.shards, e)
	}
	g.global = NewEngine()
	g.global.group, g.global.groupIdx = g, shards
	g.all = append(append([]*Engine{}, g.shards...), g.global)
	g.workers = make([]worker, shards-1)
	for i := range g.workers {
		w := &g.workers[i]
		w.start.wake, w.done.wake = make(chan struct{}, 1), make(chan struct{}, 1)
	}
	g.panics = make([]any, shards)
	return g
}

// Global returns the serialized control engine. Its Run/RunUntil/Shutdown/
// EnableTrace/TraceFingerprint/EventsExecuted drive and report on the whole
// group.
func (g *Group) Global() *Engine { return g.global }

// Shard returns shard engine i.
func (g *Group) Shard(i int) *Engine { return g.shards[i] }

// CtlCall requests host-level control work from a dispatch context. It
// always consumes one child key from the executing context — so lineage
// sequences stay identical across modes — and then either runs fn inline
// (no group, or the work is local to the executing shard) or deposits it
// for the group coordinator, which executes it in the serialized global
// phase at the current instant, with all shards parked at a barrier.
func (e *Engine) CtlCall(local bool, fn func()) {
	src := e.execCtx()
	key := src.childKey()
	g := e.group
	if g == nil || local {
		fn()
		return
	}
	g.ctls.put(boxEvent{at: src.now, key: key, h: Func(fn)})
}

// run is the coordinator loop: alternate serialized "fused" instants (any
// time the global engine has work at the group minimum T) with parallel
// shard windows [T, H), H = min(T+lookahead, next global event, deadline+1).
func (g *Group) run(deadline Time) {
	defer g.stopWorkers() // also when a window or a fused instant panics
	for {
		g.drainDeposits()
		g.drainCtls()
		T, ok := g.minNext()
		if !ok {
			break
		}
		if T > deadline {
			break
		}
		g.mergeFp(T)
		if gt, has := g.global.q.next(); has && gt == T {
			g.stats.Fused++
			g.fusedInstant(T)
			continue
		}
		H := T + g.look
		if gt, has := g.global.q.next(); has && gt < H {
			H = gt
		}
		if deadline != timeMax && H > deadline+1 {
			H = deadline + 1
		}
		g.runWindow(H)
	}
	g.mergeFp(timeMax)
	if deadline == timeMax {
		alive := 0
		for _, e := range g.all {
			alive += e.alive
		}
		if alive > 0 {
			panic("des: deadlock: " + deadlockReport(g.all...))
		}
		// The run stops where the serial engine's one clock would: at the last
		// event dispatched anywhere. A member left behind at its own last event
		// would start whatever is scheduled next (a second Launch's ranks) in
		// the past.
		deadline = g.now()
	}
	for _, e := range g.all {
		e.advance(deadline)
	}
}

// drainDeposits folds every mailbox into its engine's queue. Deposit order
// within the queue is decided by the carried lineage keys, not arrival
// order, so concurrent producers cannot perturb dispatch.
func (g *Group) drainDeposits() {
	for _, e := range g.all {
		for _, b := range e.mbox.take() {
			e.seq++
			e.q.push(b.at, b.key, e.seq, slot{h: b.h, arg: b.arg})
		}
	}
}

// drainCtls executes deposited control calls on the global engine in
// (at, key) order, advancing the global clock to each call's instant. Every
// pending call predates the next barrier's window, so executing them all
// here preserves causality.
func (g *Group) drainCtls() {
	ctls := g.ctls.take()
	if len(ctls) == 0 {
		return
	}
	sort.Slice(ctls, func(i, j int) bool {
		if ctls[i].at != ctls[j].at {
			return ctls[i].at < ctls[j].at
		}
		return ctls[i].key < ctls[j].key
	})
	for _, c := range ctls {
		g.global.advance(c.at)
		g.global.curBase = mixKey(c.key, 0)
		g.global.childIdx = 0
		c.h.Handle(c.arg)
	}
	clear(ctls) // the closures are done with
}

// minNext returns the earliest pending timestamp across all member queues.
func (g *Group) minNext() (Time, bool) {
	var t Time
	ok := false
	for _, e := range g.all {
		if n, has := e.q.next(); has && (!ok || n < t) {
			t, ok = n, true
		}
	}
	return t, ok
}

// fusedInstant dispatches every event at instant T across all engines,
// serialized on the coordinator in global (at, key) order — bit-identical
// to the serial engine's interleaving. This is the only phase in which
// same-instant cross-shard interaction can occur (the global engine's
// connection management touching shard-owned state), and all shards are
// parked here, so it is race-free by construction.
func (g *Group) fusedInstant(T Time) {
	for _, e := range g.all {
		e.advance(T)
		e.deadline = T - 1 // pausing procs dispatch nothing; baton returns here
		e.stopped = false
	}
	defer func() { g.cur = nil }() // also when a process panic passes through
	var instMax uint64
	var ev event
	for {
		var x *Engine
		var bestKey uint64
		for _, e := range g.all {
			if at, k, ok := e.q.peekKey(); ok && at == T {
				if x == nil || k < bestKey {
					x, bestKey = e, k
				}
			}
		}
		if x == nil {
			break
		}
		x.q.popLE(T, &ev)
		g.cur = x
		// Engines interact at zero delay only here, so the largest key of the
		// instant (see Engine.instMax) is tracked group-wide, as the serial
		// engine would see it: x is already at T, so account only raises it.
		if x.instMax < instMax {
			x.instMax = instMax
		}
		p := x.fire(&ev)
		instMax = x.instMax
		if p != nil {
			x.countSwitch(p)
			x.resume(p)
		}
		x.reraise()
	}
}

// runWindow runs every shard with pending work before H concurrently up to
// (not including) H: shard 0 on the coordinator, the others on their
// workers. The lookahead bound makes the shards independent over the
// window; panics are re-raised in shard order after every shard returns.
func (g *Group) runWindow(H Time) {
	if !g.live {
		g.live = true
		g.stats.Workers += uint64(len(g.workers))
		for i := range g.workers {
			g.wg.Add(1)
			go g.work(i+1, g.workers[i].start.gen.Load())
		}
	}
	g.stats.Windows++
	g.horizon = H
	for i := range g.workers {
		if n, ok := g.shards[i+1].q.next(); ok && n < H {
			g.workers[i].start.post()
		}
	}
	if n, ok := g.shards[0].q.next(); ok && n < H {
		g.panics[0] = g.window(g.shards[0])
	}
	for i := range g.workers {
		w := &g.workers[i]
		w.done.wait(w.start.gen.Load(), g)
	}
	for i, r := range g.panics {
		if r != nil {
			clear(g.panics[i:])
			panic(r)
		}
	}
}

// window runs shard s's driver up to the posted horizon and returns what it
// panicked with, if anything.
func (g *Group) window(s *Engine) (r any) {
	defer func() { r = recover() }()
	s.deadline = g.horizon - 1
	s.stopped = false
	s.runDriver()
	return nil
}

// work is shard i's worker: it runs each window posted after the first n,
// and reports it done, until a quit.
func (g *Group) work(i int, n uint64) {
	defer g.wg.Done()
	w := &g.workers[i-1]
	for {
		n++
		w.start.wait(n, g)
		if g.horizon == 0 {
			w.done.post()
			return
		}
		g.panics[i] = g.window(g.shards[i])
		w.done.post()
	}
}

// stopWorkers posts a quit to every worker and joins them.
func (g *Group) stopWorkers() {
	if !g.live {
		return
	}
	g.horizon = 0
	for i := range g.workers {
		g.workers[i].start.post()
	}
	g.wg.Wait()
	g.live = false
}

// enableTrace turns on group-wide schedule fingerprinting. Members buffer
// dispatched timestamps; mergeFp folds them in merged time order, which
// reproduces the serial engine's fold exactly (ties are equal values, so
// their fold order cannot matter).
func (g *Group) enableTrace() {
	g.fpOn = true
	g.fp = 14695981039346656037 // FNV-1a offset basis
	for _, e := range g.all {
		e.fpOn = true
	}
}

// mergeFp folds every buffered timestamp strictly before horizon into the
// group fingerprint in ascending order. Called at each barrier with the
// group minimum T — nothing can later dispatch before T, so the fold order
// is final — which keeps the buffers window-sized instead of run-sized.
func (g *Group) mergeFp(horizon Time) {
	if !g.fpOn {
		return
	}
	for {
		var x *Engine
		var best Time
		for _, e := range g.all {
			if e.fpHead < len(e.fpBuf) {
				if v := e.fpBuf[e.fpHead]; v < horizon && (x == nil || v < best) {
					x, best = e, v
				}
			}
		}
		if x == nil {
			return
		}
		g.fp = (g.fp ^ uint64(best)) * 1099511628211
		x.fpHead++
		if x.fpHead == len(x.fpBuf) {
			x.fpBuf = x.fpBuf[:0]
			x.fpHead = 0
		}
	}
}

// fingerprint folds anything still buffered and returns the merged group
// fingerprint.
func (g *Group) fingerprint() uint64 {
	g.mergeFp(timeMax)
	return g.fp
}

// eventCounts sums dispatched events across members.
func (g *Group) eventCounts() EventCounts {
	var n EventCounts
	for _, e := range g.all {
		n.SelfWake += e.n.SelfWake
		n.Switch += e.n.Switch
		n.TaskStep += e.n.TaskStep
		n.Func += e.n.Func
		n.Stale += e.n.Stale
		n.CutOff += e.n.CutOff
	}
	return n
}

// switchesBySite sums coroutine switches by site across members.
func (g *Group) switchesBySite() SiteCounts {
	var n SiteCounts
	for _, e := range g.all {
		for s, c := range e.sw {
			n[s] += c
		}
	}
	return n
}

// now reports the group clock: the farthest instant any member has reached.
func (g *Group) now() Time {
	t := g.global.now
	for _, e := range g.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// shutdown terminates every member engine and drops pending deposits.
func (g *Group) shutdown() {
	for _, e := range g.all {
		e.shutdownOne()
		e.mbox.take()
		e.fpBuf, e.fpHead = nil, 0
	}
	g.ctls.take()
}
