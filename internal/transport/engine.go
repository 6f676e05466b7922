package transport

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
)

// Wildcards for receive matching.
const (
	AnySource int32 = -1
	AnyTag    int32 = -2
)

// Status describes a completed receive.
type Status struct {
	Source int32
	Tag    int32
	Len    int
}

// Request is an MPI request handle.
type Request struct {
	done   bool
	status Status
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

// Status returns the receive status (valid once done).
func (r *Request) Status() Status { return r.status }

// postedRecv is an entry of the posted receive queue.
type postedRecv struct {
	src, tag, ctx int32
	buf           Buffer
	req           *Request
}

// uqEntry is an entry of the unexpected queue.
type uqEntry struct {
	env Envelope

	// Eager: payload lands (or is landing) in tmp.
	tmp      Buffer
	complete bool
	waiter   *postedRecv // receive matched while payload still arriving

	// Rendezvous: accept when the receive posts — on the endpoint the RTS
	// arrived on, which with wildcards is the only record of the peer.
	rndvEP Endpoint
	rndvID uint64
	isRndv bool
}

// Engine is one rank's progress engine: the single posted/unexpected queue
// pair, the request lifecycle, and the polling loop over every peer
// endpoint. It is the rank's ADI3 device: each rank has exactly one, and
// the MPI layer drives it directly.
type Engine struct {
	rank int32
	size int
	node *model.Node
	hca  *ib.HCA

	// Endpoint slots are sparse: sorted parallel slices holding only the
	// peers this rank has spoken to (stubs included). A 4096-rank job's
	// engines used to carry np pointers each — 134 MB of nil slots across
	// the cluster before the first message — where a stencil rank talks to
	// a handful of peers.
	peers []int32      // ranks with an endpoint slot, ascending
	peps  []Endpoint   // parallel to peers
	act   []int32      // peers with established (pollable) endpoints, ascending
	actEp []Endpoint   // parallel to act — the poll loop's O(1) hot path
	idle  []idlePoller // parallel to act: the endpoint as an idlePoller, or nil
	held  []idleAnswer // parallel to act: the answer held until touch (DESIGN.md §18)
	visit int          // slots of held a pass must visit: those holding no free answer
	rr    int          // round-robin polling cursor over act

	ready des.Queue[int32] // fulfilled stubs awaiting promotion (lazy mode)

	// Scratch for the run of charged answers Progress is sleeping through:
	// each step's endpoint, its offset in the pass, and its charge.
	idleRun   []idlePoller
	idleAt    []int
	idleSteps []des.Step

	// dialer starts connection establishment toward a peer. When set, the
	// first send to a nil endpoint slot creates the lazy stub on demand —
	// the engine never holds per-peer state for peers it has not talked to,
	// which is what keeps np=4096 setup O(np) instead of O(np²).
	dialer func(p *des.Proc, peer int32)

	// shared holds progress work common to every endpoint of this rank
	// (the SRQ pools): Progress runs each once per pass, instead of every
	// connection on a pool re-polling it.
	shared []func(p *des.Proc) bool

	prq []*postedRecv
	uq  []*uqEntry

	// Drained unexpected-message buffers, by size class (scratchClass).
	// model.Memory never frees, so without recycling every early sender
	// would cost the rank a buffer, an address range and an allocation-table
	// entry for the rest of the run.
	scratch [][]uint64

	stats ProgressStats
	err   error
}

// idleAnswer is what an active slot holds: an idle answer — free when its
// step is zero (the skipped Poll would sleep nothing and change nothing),
// charged otherwise (§16's chain step) — or, with ok unset, none: the next
// visit asks the endpoint.
type idleAnswer struct {
	step des.Step
	ok   bool
}

func (a idleAnswer) free() bool { return a.ok && a.step.Hops == 0 }

// ProgressStats counts what the progress loop cost the harness: none of it
// is simulated work, and Polls minus PollHits found nothing to do.
type ProgressStats struct {
	Passes   uint64 `json:"passes"`    // Progress calls
	Polls    uint64 `json:"polls"`     // Endpoint.Poll calls
	PollHits uint64 `json:"poll_hits"` // ... that reported progress
	IdleAsks uint64 `json:"idle_asks"` // IdlePoll questions put to endpoints
}

// ProgressStats returns the engine's progress-loop counters.
func (e *Engine) ProgressStats() ProgressStats { return e.stats }

// NewEngine builds the progress engine for rank of size ranks on the given
// adapter. Endpoints are installed afterwards with SetEndpoint.
func NewEngine(rank int32, size int, hca *ib.HCA) *Engine {
	return &Engine{
		rank: rank,
		size: size,
		node: hca.Node(),
		hca:  hca,
	}
}

// Rank returns the engine's rank.
func (e *Engine) Rank() int32 { return e.rank }

// Size returns the job size.
func (e *Engine) Size() int { return e.size }

// Node returns the node the rank runs on.
func (e *Engine) Node() *model.Node { return e.node }

// HCA returns the rank's adapter (its node's rail 0).
func (e *Engine) HCA() *ib.HCA { return e.hca }

// ep returns peer's endpoint slot, nil when the rank has never spoken to
// peer.
func (e *Engine) ep(peer int32) Endpoint {
	if i, ok := slices.BinarySearch(e.peers, peer); ok {
		return e.peps[i]
	}
	return nil
}

// setEp installs or replaces peer's endpoint slot, keeping the slices
// sorted.
func (e *Engine) setEp(peer int32, ep Endpoint) {
	i, ok := slices.BinarySearch(e.peers, peer)
	if !ok {
		e.peers = slices.Insert(e.peers, i, peer)
		e.peps = slices.Insert(e.peps, i, ep)
	}
	e.peps[i] = ep
}

// SetEndpoint installs the endpoint to a peer rank.
func (e *Engine) SetEndpoint(peer int32, ep Endpoint) {
	e.setEp(peer, ep)
	if _, ok := ep.(*Stub); !ok {
		e.activate(peer, ep)
	}
}

// activate records peer in the established-endpoint list the progress loop
// polls. The list is kept sorted by rank so the poll order is a
// deterministic function of the connected set. What the slot knew about an
// endpoint it replaces (a re-dial) goes with it: the held answer is dropped,
// and the next visit asks the newcomer.
func (e *Engine) activate(peer int32, ep Endpoint) {
	i, ok := slices.BinarySearch(e.act, peer)
	if !ok {
		e.act = slices.Insert(e.act, i, peer)
		e.actEp = slices.Insert(e.actEp, i, ep)
		e.idle = slices.Insert(e.idle, i, nil)
		e.held = slices.Insert(e.held, i, idleAnswer{})
		e.visit++
	}
	e.actEp[i] = ep
	e.idle[i], _ = ep.(idlePoller)
	e.hold(i, idleAnswer{})
	if ip := e.idle[i]; ip != nil {
		ip.WatchIdle(func() { e.touchPeer(peer) })
	}
}

// touchPeer is the touch function of peer's idlePoller: the answer its slot
// holds is dropped, and the next visit of the rotation to the slot — in the
// running pass if that is still ahead — asks again. Touching a slot that
// holds nothing or is gone is harmless.
func (e *Engine) touchPeer(peer int32) {
	if i, ok := slices.BinarySearch(e.act, peer); ok {
		e.hold(i, idleAnswer{})
	}
}

// hold makes a the answer active slot i holds, keeping the count of slots a
// pass must visit.
func (e *Engine) hold(i int, a idleAnswer) {
	if e.held[i].free() {
		e.visit++
	}
	if a.free() {
		e.visit--
	}
	e.held[i] = a
}

// SetDialer installs the lazy connection starter: the first send toward a
// rank with no endpoint creates the stub and invokes it. One closure per
// engine replaces the per-pair stubs eagerly pre-installed before.
func (e *Engine) SetDialer(dial func(p *des.Proc, peer int32)) { e.dialer = dial }

// AddSharedPoll registers rank-wide progress work that Progress runs once
// per pass, before the per-endpoint polls. Endpoints whose heavy lifting
// lives in a shared structure (SRQ pools) register it here and keep their
// own Poll connection-local.
func (e *Engine) AddSharedPoll(f func(p *des.Proc) bool) { e.shared = append(e.shared, f) }

// Endpoint returns the endpoint to a peer rank. In lazy mode this is a
// *Stub until the first send triggers establishment.
func (e *Engine) Endpoint(peer int32) Endpoint { return e.ep(peer) }

// Fulfill delivers the established endpoint for peer. With no stub in the
// slot (eager wiring) the endpoint installs directly; a stub records it
// for promotion — the owning process's next progress pass swaps it in and
// flushes the sends queued during the handshake, in posted order, on the
// owner's own process (see Stub for why the connection manager must not
// flush them itself). The wakeup ensures a progress loop blocked on
// fabric activity notices the new endpoint.
func (e *Engine) Fulfill(peer int32, ep Endpoint) {
	if st, ok := e.ep(peer).(*Stub); ok {
		st.inner = ep
		e.ready.Put(peer)
	} else {
		e.setEp(peer, ep)
		e.activate(peer, ep)
	}
	e.hca.NotifyMemWrite()
}

// promoteStubs swaps fulfilled stubs for their endpoints and flushes the
// sends they queued, on the owning process. It runs at the top of every
// progress pass.
func (e *Engine) promoteStubs(p *des.Proc) bool {
	prog := false
	for peer, ok := e.ready.TryGet(); ok; peer, ok = e.ready.TryGet() {
		st, ok := e.ep(peer).(*Stub)
		if !ok || st.inner == nil {
			continue
		}
		e.setEp(peer, st.inner)
		e.activate(peer, st.inner)
		for _, ps := range st.pending {
			e.dispatchSend(p, st.inner, ps.env, ps.buf, ps.req)
			prog = true
		}
		st.pending = nil
	}
	return prog
}

// Connected reports whether an established endpoint to peer exists
// (fulfilled-but-unpromoted stubs count: their connection is up).
func (e *Engine) Connected(peer int32) bool {
	switch ep := e.ep(peer).(type) {
	case nil:
		return false
	case *Stub:
		return ep.inner != nil
	default:
		return true
	}
}

// EnsureConnected establishes the connection to peer without sending a
// message: it starts the dial if needed and drives progress until the
// endpoint is promoted. Callers that need verbs-level resources up front
// (one-sided window creation) use it; ordinary sends connect implicitly.
func (e *Engine) EnsureConnected(p *des.Proc, peer int32) {
	if e.ep(peer) == nil && e.dialer != nil && peer != e.rank {
		e.makeStub(peer)
	}
	st, ok := e.ep(peer).(*Stub)
	if !ok {
		return
	}
	st.kick(p)
	for !e.Connected(peer) {
		e.Progress(p, true)
	}
	e.promoteStubs(p)
}

// ForEachEndpoint visits every established endpoint in ascending peer
// order (a fulfilled-but-unpromoted stub contributes its inner endpoint).
// Accounting walks connections through this instead of probing all np
// slots per rank.
func (e *Engine) ForEachEndpoint(f func(peer int32, ep Endpoint)) {
	for i, peer := range e.act {
		f(peer, e.actEp[i])
	}
	for _, peer := range e.ready.Pending() {
		if st, ok := e.ep(peer).(*Stub); ok && st.inner != nil {
			f(peer, st.inner)
		}
	}
}

// makeStub creates the lazy connector for peer on demand via the dialer.
func (e *Engine) makeStub(peer int32) *Stub {
	st := NewStub(peer, func(p *des.Proc) { e.dialer(p, peer) })
	e.setEp(peer, st)
	return st
}

// Fail records a fatal transport error; subsequent calls panic with it (a
// failed fabric is unrecoverable for MPI-1 semantics). It is the error
// callback endpoints are constructed with.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Engine) check() {
	if e.err != nil {
		panic(fmt.Sprintf("transport: rank %d: %v", e.rank, e.err))
	}
}

// Isend starts a non-blocking send of buf to dest with tag in context ctx.
// The engine — not the endpoint — picks the protocol: payloads at or above
// the endpoint's rendezvous threshold are announced, everything else moves
// eagerly.
func (e *Engine) Isend(p *des.Proc, dest, tag, ctx int32, buf Buffer) *Request {
	e.check()
	req := &Request{}
	env := Envelope{Src: e.rank, Tag: tag, Ctx: ctx, Len: buf.Len}
	if dest == e.rank {
		e.sendSelf(p, env, buf)
		req.done = true
		return req
	}
	ep := e.ep(dest)
	if ep == nil && e.dialer != nil {
		ep = e.makeStub(dest)
	}
	if st, ok := ep.(*Stub); ok {
		// No connection yet: queue the message and start the handshake;
		// Fulfill flushes in posted order once the endpoint exists.
		st.pending = append(st.pending, pendingSend{env: env, buf: buf, req: req})
		st.kick(p)
		return req
	}
	e.dispatchSend(p, ep, env, buf, req)
	return req
}

// sendSelf delivers a message to this rank as one local copy, charged to
// the bus: it fills a matching posted receive, or lands in the unexpected
// queue exactly as an early eager sender's payload would.
func (e *Engine) sendSelf(p *des.Proc, env Envelope, buf Buffer) {
	sink := e.ArriveEager(p, env)
	if n := env.Len; n > 0 {
		copy(e.node.Mem.MustResolve(sink.Buf.Addr, n), e.node.Mem.MustResolve(buf.Addr, n))
		e.node.Bus.Memcpy(p, n, n)
	}
	sink.Done(p)
}

// dispatchSend picks the protocol — the engine's decision, not the
// endpoint's — and hands the message to the endpoint.
func (e *Engine) dispatchSend(p *des.Proc, ep Endpoint, env Envelope, buf Buffer, req *Request) {
	done := func(*des.Proc) { req.done = true }
	if th := ep.RendezvousThreshold(); th > 0 && buf.Len >= th {
		ep.SendRendezvous(p, env, buf, done)
	} else {
		ep.SendEager(p, env, buf, done)
	}
}

// Irecv starts a non-blocking receive into buf from src (or AnySource)
// with tag (or AnyTag) in context ctx.
func (e *Engine) Irecv(p *des.Proc, src, tag, ctx int32, buf Buffer) *Request {
	e.check()
	req := &Request{}
	pr := &postedRecv{src: src, tag: tag, ctx: ctx, buf: buf, req: req}

	// Check the unexpected queue first.
	for i, ue := range e.uq {
		if !matches(pr, ue.env) {
			continue
		}
		e.uq = append(e.uq[:i], e.uq[i+1:]...)
		if ue.isRndv {
			// Answer the rendezvous now; the payload moves straight into
			// the user buffer (no copy) over the endpoint that announced it.
			e.checkFit(ue.env, pr)
			ue.rndvEP.AcceptRendezvous(p, ue.rndvID, Buffer{Addr: buf.Addr, Len: ue.env.Len},
				func(p *des.Proc) { completeRecv(req, ue.env) })
			return req
		}
		if ue.complete {
			e.copyUnexpected(p, ue, pr)
			completeRecv(req, ue.env)
			return req
		}
		// Payload still streaming into the unexpected buffer: hand over.
		ue.waiter = pr
		return req
	}
	e.prq = append(e.prq, pr)
	return req
}

// copyUnexpected moves a buffered unexpected payload to the user buffer,
// charging the extra copy the eager protocol pays for early senders, and
// recycles the drained scratch buffer.
func (e *Engine) copyUnexpected(p *des.Proc, ue *uqEntry, pr *postedRecv) {
	n := ue.env.Len
	if n == 0 {
		return
	}
	e.checkFit(ue.env, pr)
	src := e.node.Mem.MustResolve(ue.tmp.Addr, n)
	dst := e.node.Mem.MustResolve(pr.buf.Addr, n)
	copy(dst, src)
	e.node.Bus.Memcpy(p, n, n)
	c := scratchClass(n)
	e.scratch[c] = append(e.scratch[c], ue.tmp.Addr)
}

// scratchClass maps a payload length to its unexpected-buffer size class:
// class c holds buffers of 64<<c bytes.
func scratchClass(n int) int {
	return bits.Len(uint((n - 1) >> 6))
}

// allocScratch returns a buffer for an n-byte unexpected payload, reusing
// the storage of a drained one of the same class when there is one — at a
// fresh address, as a newly allocated buffer would have (Memory.Remap).
func (e *Engine) allocScratch(n int) Buffer {
	c := scratchClass(n)
	for len(e.scratch) <= c {
		e.scratch = append(e.scratch, nil)
	}
	if free := e.scratch[c]; len(free) > 0 {
		e.scratch[c] = free[:len(free)-1]
		return Buffer{Addr: e.node.Mem.Remap(free[len(free)-1]), Len: n}
	}
	va, _ := e.node.Mem.Alloc(64 << c)
	return Buffer{Addr: va, Len: n}
}

// checkFit fails the engine when a message would truncate into its
// receive buffer.
func (e *Engine) checkFit(env Envelope, pr *postedRecv) {
	if env.Len > pr.buf.Len {
		e.Fail(fmt.Errorf("transport: message of %d bytes truncated into %d-byte receive",
			env.Len, pr.buf.Len))
		e.check()
	}
}

func completeRecv(req *Request, env Envelope) {
	req.status = Status{Source: env.Src, Tag: env.Tag, Len: env.Len}
	req.done = true
}

func matches(pr *postedRecv, env Envelope) bool {
	if pr.ctx != env.Ctx {
		return false
	}
	if pr.src != AnySource && pr.src != env.Src {
		return false
	}
	if pr.tag != AnyTag && pr.tag != env.Tag {
		return false
	}
	return true
}

// ArriveEager implements Handler.
func (e *Engine) ArriveEager(p *des.Proc, env Envelope) Sink {
	for i, pr := range e.prq {
		if !matches(pr, env) {
			continue
		}
		e.prq = append(e.prq[:i], e.prq[i+1:]...)
		e.checkFit(env, pr)
		req := pr.req
		return Sink{
			Buf:  pr.buf,
			Done: func(*des.Proc) { completeRecv(req, env) },
		}
	}
	// Unexpected: land in a scratch buffer; a later receive copies it out.
	ue := &uqEntry{env: env}
	if env.Len > 0 {
		ue.tmp = e.allocScratch(env.Len)
	}
	e.uq = append(e.uq, ue)
	eng := e
	return Sink{
		Buf: ue.tmp,
		Done: func(p *des.Proc) {
			ue.complete = true
			if ue.waiter != nil {
				eng.copyUnexpected(p, ue, ue.waiter)
				completeRecv(ue.waiter.req, env)
			}
		},
	}
}

// ArriveRTS implements Handler: a rendezvous announcement matches a posted
// receive immediately or waits on the unexpected queue — without moving
// any payload. The accepting call always goes back to ep, the endpoint the
// announcement arrived on.
func (e *Engine) ArriveRTS(p *des.Proc, env Envelope, ep Endpoint, id uint64) {
	for i, pr := range e.prq {
		if !matches(pr, env) {
			continue
		}
		e.prq = append(e.prq[:i], e.prq[i+1:]...)
		e.checkFit(env, pr)
		req := pr.req
		ep.AcceptRendezvous(p, id, Buffer{Addr: pr.buf.Addr, Len: env.Len},
			func(*des.Proc) { completeRecv(req, env) })
		return
	}
	e.uq = append(e.uq, &uqEntry{env: env, isRndv: true, rndvEP: ep, rndvID: id})
}

// idlePoller is implemented by endpoints that can tell when a Poll issued
// now would find nothing (DESIGN.md §18). The answer is free — a zero step:
// the Poll would sleep nothing and change nothing (shmchan.Conn, a
// non-resilient ch3.SRQConn) — or charged: the Poll would pay the step and
// find nothing (ch3.Conn over a chunk ring, whose every Get is charged
// before it looks), and then the endpoint also has PollCharged (pollCharged).
type idlePoller interface {
	// IdlePoll reports whether a Poll issued now would pay exactly the
	// returned charge and find nothing. An idle answer holds until the
	// endpoint calls touch, and the engine keeps it that long.
	IdlePoll() (des.Step, bool)

	// WatchIdle is called when the engine activates the endpoint, with its
	// slot's touch function. The endpoint calls touch in every dispatch that
	// changes what IdlePoll reads: another process's write or completion,
	// before that dispatch's NotifyMemWrite, or its own process handing it
	// work it returns to the engine with.
	WatchIdle(touch func())
}

// Progress makes one round-robin pass over the established endpoints that
// can have work — the slots holding no free answer — and with block set
// sleeps until fabric activity when nothing moved. A free answer's Poll
// would have returned false and touched nothing, so skipping it leaves every
// event where it was and makes a quiet rank's wake-up O(1) instead of
// O(connected). The rotation cursor advances every pass so no peer is
// structurally favoured when many endpoints compete. The activity counter is
// read before the pass so that a delivery racing with the polling of another
// endpoint cannot be lost.
//
// The held answers are read after stub promotion and the shared polls, slot
// by slot as the rotation reaches them: a CTS queued while the pool poll
// dispatched an RTS, or a send a promotion could not flush, touched its slot
// and is visited by this same pass, as it was when the pass polled everyone.
func (e *Engine) Progress(p *des.Proc, block bool) bool {
	e.check()
	e.stats.Passes++
	seq := e.hca.MemEventSeq()
	prog := e.promoteStubs(p)
	for _, f := range e.shared {
		if f(p) {
			prog = true
		}
	}
	if len(e.act) > 0 {
		start := int32(e.rr)
		e.rr = (e.rr + 1) % e.size
		if (e.visit > 0 || invariants) && e.pollFrom(p, start) {
			prog = true
		}
	}
	e.check()
	if !prog && block {
		e.hca.WaitMemEventSince(p, seq)
	}
	return prog
}

// pollFrom walks the active list once, from the first peer at or after
// start, polling the slots whose answer is busy. The cursor rotates over
// the full rank space and is binary-searched into the active list: the peer
// polled first each pass is exactly the one the original all-slots scan
// would have reached, so the poll schedule (and with it every calibrated
// figure) is unchanged — only the nil-slot skipping went away.
//
// Endpoints whose poll would only pay its charge are not polled one event
// at a time: a run of charged answers is slept as one chain on the node,
// which NotifyMemWrite cuts at the endpoint being charged when anything
// observable changes. The endpoints before that one were charged with
// nothing to see; it alone looks, exactly when its own Poll would have, and
// the pass carries on from the next slot. A free answer between two of them
// does not end the run: the slot-by-slot pass would find nothing there at
// that step boundary, where nothing is minted, so the chain's keys are the
// same; a touch from another process comes with a NotifyMemWrite, which
// cuts the chain at the step in progress, so a slot touched before its
// boundary is still ahead of the resumed pass (DESIGN.md §16). Each answer
// is asked once and held until the endpoint touches its slot; a busy answer
// is not held and stays busy until the endpoint's own Poll, so the slot
// that ended a run is not asked again when the pass comes back to it, and a
// polled slot is asked on its next visit.
func (e *Engine) pollFrom(p *des.Proc, start int32) (prog bool) {
	n := len(e.act)
	lo, _ := slices.BinarySearch(e.act, start)
	if lo == n {
		lo = 0
	}
	busy := int32(-1) // the peer whose slot answered busy, until it is polled
	for i := 0; i < n; {
		e.idleRun, e.idleAt, e.idleSteps = e.idleRun[:0], e.idleAt[:0], e.idleSteps[:0]
		j := i
		for ; j < n; j++ {
			k := (lo + j) % n
			if e.act[k] == busy {
				break
			}
			a := e.answer(k)
			if !a.ok {
				busy = e.act[k]
				break
			}
			if a.step.Hops == 0 {
				continue // free: step over it
			}
			e.idleRun = append(e.idleRun, e.idle[k])
			e.idleAt = append(e.idleAt, j)
			e.idleSteps = append(e.idleSteps, a.step)
		}
		if len(e.idleRun) == 0 {
			// Slots i..j-1 hold free answers; j, if any, must be polled.
			if j < n {
				e.stats.Polls++
				if e.actEp[(lo+j)%n].Poll(p) {
					e.stats.PollHits++
					prog = true
				}
			}
			i, busy = j+1, -1
			continue
		}
		paid := e.node.SleepChain(p, e.idleSteps)
		for _, ip := range e.idleRun[:paid-1] {
			pollCharged(p, ip, false)
		}
		if pollCharged(p, e.idleRun[paid-1], true) {
			prog = true
		}
		i = e.idleAt[paid-1] + 1
	}
	return prog
}

// pollCharged finishes the Poll of a charged answer's endpoint, whose charge
// the pass has slept (ch3.Conn.PollCharged): with look it runs everything
// Poll does after the charge, without it the poll is only counted.
func pollCharged(p *des.Proc, ip idlePoller, look bool) bool {
	return ip.(interface{ PollCharged(*des.Proc, bool) bool }).PollCharged(p, look)
}

// answer returns active slot k's answer: the one it holds, or its
// endpoint's, which is held when idle. An endpoint that is no idlePoller is
// busy unasked.
func (e *Engine) answer(k int) idleAnswer {
	if a := e.held[k]; a.ok {
		e.checkHeld(k)
		return a
	}
	if e.idle[k] == nil {
		return idleAnswer{}
	}
	e.stats.IdleAsks++
	var a idleAnswer
	if a.step, a.ok = e.idle[k].IdlePoll(); a.ok {
		e.hold(k, a)
	}
	return a
}

// Wait blocks until the request completes, driving progress.
func (e *Engine) Wait(p *des.Proc, req *Request) Status {
	for !req.done {
		e.Progress(p, true)
	}
	e.check()
	return req.status
}

// ProgressUntil drives progress until done reports true. Reaping a
// completion is not "connection progress", so the node's memory-event
// counter is snapshotted before each non-blocking pass: if the pass made
// done true the loop exits; otherwise it sleeps until anything new lands.
func (e *Engine) ProgressUntil(p *des.Proc, done func() bool) {
	for !done() {
		seq := e.hca.MemEventSeq()
		e.Progress(p, false)
		if done() {
			return
		}
		e.hca.WaitMemEventSince(p, seq)
	}
}

// WaitAll blocks until every request completes.
func (e *Engine) WaitAll(p *des.Proc, reqs ...*Request) {
	for _, r := range reqs {
		e.Wait(p, r)
	}
}
