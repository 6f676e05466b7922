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

// Request is an MPI request handle. The engine keeps the ones it made on a
// free list (Finish): a request started by a blocking call, whose handle
// never leaves the caller, goes back there once its wait has returned, so a
// steady-state message takes no request from the heap. A handle Isend or
// Irecv hands to the user is never recycled: the user may read it at any
// time after.
type Request struct {
	done bool
	free bool // on the engine's free list

	// What the request was started with: the destination or source (maybe
	// AnySource), tag, context and a receive's buffer; a receive's matched
	// envelope, its status.
	peer, tag, ctx int32
	buf            Buffer
	env            Envelope

	// onDone is the completion callback endpoints are handed, bound once
	// when the request is made.
	onDone func(p *des.Proc)
}

// Done reports completion.
func (r *Request) Done() bool { return r.done }

// Status returns the receive status (valid once done).
func (r *Request) Status() Status { return Status{Source: r.env.Src, Tag: r.env.Tag, Len: r.env.Len} }

// uqEntry is an entry of the unexpected queue, recycled once its message
// has gone to a receive.
type uqEntry struct {
	env Envelope

	// Eager: payload lands (or is landing) in tmp.
	tmp      Buffer
	complete bool
	waiter   *Request // receive matched while payload still arriving

	// Rendezvous: accept when the receive posts — on the endpoint the RTS
	// arrived on, which with wildcards is the only record of the peer.
	rndvEP Endpoint
	rndvID uint64
	isRndv bool

	// landed is the eager payload's Sink.Done, bound once when the entry
	// is made.
	landed func(p *des.Proc)
}

// Engine is one rank's progress engine: the single posted/unexpected queue
// pair, the request lifecycle, and the polling loop over every peer
// endpoint. It is the rank's ADI3 device: each rank has exactly one, and
// the MPI layer drives it directly.
type Engine struct {
	rank  int32
	size  int
	node  *model.Node
	hca   *ib.HCA
	watch *model.Watch // the rank's: everything it polls notifies it
	woke  bool         // a blocking wait returned since the last pass
	paid  bool         // ... and slept the next pass's first charge (wait)

	// The woken pass's chain (wait), and the watch's count read before it,
	// which the paid pass starts from.
	wakeSteps [2]des.Step
	paidSeq   uint64

	// Endpoint slots are sparse: sorted parallel slices holding only the
	// peers this rank has an established endpoint to. A 4096-rank job's
	// engines used to carry np pointers each — 134 MB of nil slots across
	// the cluster before the first message — where a stencil rank talks to
	// a handful of peers.
	act   []int32      // peers with established (pollable) endpoints, ascending
	actEp []Endpoint   // parallel to act — the poll loop's O(1) hot path
	held  []idleAnswer // parallel to act: the answer held until touch (DESIGN.md §18)
	visit int          // slots of held a pass must visit: those holding no free answer
	rr    int          // round-robin polling cursor over act

	dials []*dial          // connections being established (lazy mode)
	ready des.Queue[*dial] // fulfilled dials awaiting promotion, in fulfil order

	// Scratch for the run of charged answers Progress is sleeping through:
	// each step's endpoint, its offset in the pass, and its charge.
	idleRun   []Endpoint
	idleAt    []int
	idleSteps []des.Step

	// dialer starts connection establishment toward a peer. When set, the
	// first send to a peer with no endpoint opens a dial on demand — the
	// engine never holds per-peer state for peers it has not talked to,
	// which is what keeps np=4096 setup O(np) instead of O(np²).
	dialer func(p *des.Proc, peer int32)

	// shared holds progress work common to every endpoint of this rank
	// (the SRQ pools): Progress runs each once per pass, instead of every
	// connection on a pool re-polling it.
	shared []SharedPoll

	prq []*Request // posted receives
	uq  []*uqEntry

	// Recycled requests and unexpected entries (Request, Finish).
	freeReqs []*Request
	freeUQ   []*uqEntry

	// Drained unexpected-message buffers, by size class (scratchClass).
	// model.Memory never frees, so without recycling every early sender
	// would cost the rank a buffer, an address range and an allocation-table
	// entry for the rest of the run.
	scratch [][]uint64

	stats ProgressStats
	err   error
	parkCheck
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
	Passes     uint64 `json:"passes"`                // Progress calls
	Polls      uint64 `json:"polls"`                 // Endpoint.Poll calls
	PollHits   uint64 `json:"poll_hits"`             // ... that reported progress
	IdleAsks   uint64 `json:"idle_asks"`             // IdlePoll questions put to endpoints
	Wakes      uint64 `json:"wakes,omitempty"`       // passes run right after a blocking wait returned
	EmptyWakes uint64 `json:"empty_wakes,omitempty"` // ... that made no progress
}

// ProgressStats returns the engine's progress-loop counters.
func (e *Engine) ProgressStats() ProgressStats { return e.stats }

// NewEngine builds the progress engine for rank of size ranks on the given
// adapter, with the rank's watch on the adapter's node. Endpoints are
// installed afterwards with Fulfill.
func NewEngine(rank int32, size int, hca *ib.HCA) *Engine {
	e := &Engine{
		rank:  rank,
		size:  size,
		node:  hca.Node(),
		hca:   hca,
		watch: hca.Node().NewWatch(int(rank)),
	}
	e.armCheck()
	return e
}

// Rank returns the engine's rank.
func (e *Engine) Rank() int32 { return e.rank }

// Size returns the job size.
func (e *Engine) Size() int { return e.size }

// Node returns the node the rank runs on.
func (e *Engine) Node() *model.Node { return e.node }

// HCA returns the rank's adapter (its node's rail 0).
func (e *Engine) HCA() *ib.HCA { return e.hca }

// Watch returns the rank's watch: the queues and rings the rank polls
// notify it, and its progress loop sleeps on it.
func (e *Engine) Watch() *model.Watch { return e.watch }

// Endpoint returns the established endpoint to a peer rank, nil while
// there is none — in lazy mode, until the progress pass after Fulfill
// installs it.
func (e *Engine) Endpoint(peer int32) Endpoint {
	if i, ok := slices.BinarySearch(e.act, peer); ok {
		return e.actEp[i]
	}
	return nil
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
		e.held = slices.Insert(e.held, i, idleAnswer{})
		e.visit++
	}
	e.actEp[i] = ep
	e.hold(i, idleAnswer{})
	ep.WatchIdle(func() { e.touchPeer(peer) })
}

// touchPeer is the touch function of peer's endpoint: the answer its slot
// holds is dropped, and the next visit of the rotation to the slot — in the
// running pass if that is still ahead — asks again. Touching a slot that
// holds nothing or is gone is harmless.
func (e *Engine) touchPeer(peer int32) {
	e.noteTouch()
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

// SharedPoll is rank-wide progress work (an SRQ pool, rdmachan.SRQPool)
// that Progress runs once per pass, before the per-endpoint polls.
type SharedPoll interface {
	// Ready reports the charge a pass started now would pay first, if
	// nothing the pass reads before paying it can change without a
	// notification of the rank's watch, and that charge is a positive
	// sleep (DESIGN.md §18, the ready answer).
	Ready() (des.Step, bool)
	// Poll runs the work. With paid set, the charge the last Ready named
	// has been slept, and the work starts from the state Ready saw.
	Poll(p *des.Proc, paid bool) bool
}

// AddSharedPoll registers rank-wide progress work that Progress runs once
// per pass, before the per-endpoint polls. Endpoints whose heavy lifting
// lives in a shared structure (SRQ pools) register it here and keep their
// own Poll connection-local.
func (e *Engine) AddSharedPoll(s SharedPoll) { e.shared = append(e.shared, s) }

// ForEachEndpoint visits every established endpoint in ascending peer
// order, then those of fulfilled dials not yet installed, in fulfil order.
// Accounting walks connections through this instead of probing all np
// slots per rank.
func (e *Engine) ForEachEndpoint(f func(peer int32, ep Endpoint)) {
	for i, peer := range e.act {
		f(peer, e.actEp[i])
	}
	for _, d := range e.ready.Pending() {
		f(d.peer, d.ep)
	}
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
	req := e.newRequest(dest, tag, ctx, Buffer{})
	env := Envelope{Src: e.rank, Tag: tag, Ctx: ctx, Len: buf.Len}
	if dest == e.rank {
		e.sendSelf(p, env, buf)
		e.complete(req)
		return req
	}
	ep := e.Endpoint(dest)
	if ep == nil {
		// No connection yet: queue the message on the dial, opening it;
		// the pass after Fulfill flushes in posted order.
		d := e.open(p, dest)
		d.pending = append(d.pending, pendingSend{env: env, buf: buf, req: req})
		return req
	}
	e.dispatchSend(p, ep, env, buf, req)
	return req
}

// newRequest takes a request from the free list, or makes one with its
// completion bound, and starts it toward or from peer.
func (e *Engine) newRequest(peer, tag, ctx int32, buf Buffer) *Request {
	var r *Request
	if n := len(e.freeReqs); n > 0 {
		r, e.freeReqs = e.freeReqs[n-1], e.freeReqs[:n-1]
		*r = Request{onDone: r.onDone}
	} else {
		r = &Request{}
		r.onDone = func(*des.Proc) { e.complete(r) }
	}
	r.peer, r.tag, r.ctx, r.buf = peer, tag, ctx, buf
	return r
}

// complete finishes r.
func (e *Engine) complete(r *Request) {
	e.checkRequest(r, false)
	r.done = true
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
	if th := ep.RendezvousThreshold(); th > 0 && buf.Len >= th {
		ep.SendRendezvous(p, env, buf, req.onDone)
	} else {
		ep.SendEager(p, env, buf, req.onDone)
	}
}

// Irecv starts a non-blocking receive into buf from src (or AnySource)
// with tag (or AnyTag) in context ctx. The request is the posted-queue
// entry.
func (e *Engine) Irecv(p *des.Proc, src, tag, ctx int32, buf Buffer) *Request {
	e.check()
	req := e.newRequest(src, tag, ctx, buf)

	// Check the unexpected queue first.
	for i, ue := range e.uq {
		if !matches(req, ue.env) {
			continue
		}
		e.uq = append(e.uq[:i], e.uq[i+1:]...)
		req.env = ue.env
		switch {
		case ue.isRndv:
			// Answer the rendezvous now; the payload moves straight into
			// the user buffer (no copy) over the endpoint that announced it.
			e.checkFit(req)
			ue.rndvEP.AcceptRendezvous(p, ue.rndvID, Buffer{Addr: buf.Addr, Len: ue.env.Len}, req.onDone)
			e.recycleUQ(ue)
		case ue.complete:
			e.copyUnexpected(p, ue, req)
			e.complete(req)
			e.recycleUQ(ue)
		default:
			// Payload still streaming into the unexpected buffer: hand over.
			ue.waiter = req
		}
		return req
	}
	e.prq = append(e.prq, req)
	return req
}

// Finish waits for req like Wait, then puts it back on the engine's free
// list. Only the caller that started req finishes it, and only when the
// handle dies with the call — a blocking send or receive, or a list of
// requests a collective waits for — so no one reads it again.
func (e *Engine) Finish(p *des.Proc, req *Request) Status {
	st := e.Wait(p, req)
	req.free = true
	e.freeReqs = append(e.freeReqs, req)
	return st
}

// newUQ takes an unexpected entry from the free list, or makes one with its
// payload callback bound, for a message with envelope env.
func (e *Engine) newUQ(env Envelope) *uqEntry {
	var ue *uqEntry
	if n := len(e.freeUQ); n > 0 {
		ue, e.freeUQ = e.freeUQ[n-1], e.freeUQ[:n-1]
	} else {
		ue = &uqEntry{}
		ue.landed = func(p *des.Proc) {
			ue.complete = true
			if r := ue.waiter; r != nil { // a receive matched while it streamed in
				e.copyUnexpected(p, ue, r)
				e.complete(r)
				e.recycleUQ(ue)
			}
		}
	}
	ue.env = env
	return ue
}

// recycleUQ puts an unexpected entry whose message a receive has taken on
// the free list.
func (e *Engine) recycleUQ(ue *uqEntry) {
	*ue = uqEntry{landed: ue.landed}
	e.freeUQ = append(e.freeUQ, ue)
}

// copyUnexpected moves a buffered unexpected payload to the buffer of r,
// the receive it matched, charging the extra copy the eager protocol pays
// for early senders, and recycles the drained scratch buffer.
func (e *Engine) copyUnexpected(p *des.Proc, ue *uqEntry, r *Request) {
	n := ue.env.Len
	if n == 0 {
		return
	}
	e.checkFit(r)
	src := e.node.Mem.MustResolve(ue.tmp.Addr, n)
	dst := e.node.Mem.MustResolve(r.buf.Addr, n)
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

// checkFit fails the engine when the message a receive matched would
// truncate into its buffer.
func (e *Engine) checkFit(r *Request) {
	if r.env.Len > r.buf.Len {
		e.Fail(fmt.Errorf("transport: message of %d bytes truncated into %d-byte receive",
			r.env.Len, r.buf.Len))
		e.check()
	}
}

func matches(r *Request, env Envelope) bool {
	if r.ctx != env.Ctx {
		return false
	}
	if r.peer != AnySource && r.peer != env.Src {
		return false
	}
	if r.tag != AnyTag && r.tag != env.Tag {
		return false
	}
	return true
}

// takePosted removes the first posted receive env matches from the queue
// and returns it with env recorded; nil when none matches.
func (e *Engine) takePosted(env Envelope) *Request {
	for i, r := range e.prq {
		if matches(r, env) {
			e.prq = append(e.prq[:i], e.prq[i+1:]...)
			r.env = env
			e.checkFit(r)
			return r
		}
	}
	return nil
}

// ArriveEager implements Handler.
func (e *Engine) ArriveEager(p *des.Proc, env Envelope) Sink {
	if r := e.takePosted(env); r != nil {
		return Sink{Buf: r.buf, Done: r.onDone}
	}
	// Unexpected: land in a scratch buffer; a later receive copies it out.
	ue := e.newUQ(env)
	if env.Len > 0 {
		ue.tmp = e.allocScratch(env.Len)
	}
	e.uq = append(e.uq, ue)
	return Sink{Buf: ue.tmp, Done: ue.landed}
}

// ArriveRTS implements Handler: a rendezvous announcement matches a posted
// receive immediately or waits on the unexpected queue — without moving
// any payload. The accepting call always goes back to ep, the endpoint the
// announcement arrived on.
func (e *Engine) ArriveRTS(p *des.Proc, env Envelope, ep Endpoint, id uint64) {
	if r := e.takePosted(env); r != nil {
		ep.AcceptRendezvous(p, id, Buffer{Addr: r.buf.Addr, Len: env.Len}, r.onDone)
		return
	}
	ue := e.newUQ(env)
	ue.isRndv, ue.rndvEP, ue.rndvID = true, ep, id
	e.uq = append(e.uq, ue)
}

// Progress makes one round-robin pass over the established endpoints that
// can have work — the slots holding no free answer — and with block set
// sleeps until fabric activity when nothing moved. A free answer's Poll
// would have returned false and touched nothing, so skipping it leaves every
// event where it was and makes a quiet rank's wake-up O(1) instead of
// O(connected). The rotation cursor advances every pass so no peer is
// structurally favoured when many endpoints compete. The rank's watch is
// read before the pass so that a delivery racing with the polling of another
// endpoint cannot be lost.
//
// The held answers are read after dial promotion and the shared polls, slot
// by slot as the rotation reaches them: a CTS queued while the pool poll
// dispatched an RTS, or a send a promotion could not flush, touched its slot
// and is visited by this same pass, as it was when the pass polled everyone.
func (e *Engine) Progress(p *des.Proc, block bool) bool {
	return e.progress(p, block, false)
}

// progress is Progress; with fold set a blocking wait may sleep the next
// pass's first charge with its poll detection (wait), and that pass then
// starts from what the wait saw: the watch's count read before its chain,
// no fulfilled dial (one fulfilled since came with a notification, which
// the pass's own wait then sees) and the shared poll's ready answer.
func (e *Engine) progress(p *des.Proc, block, fold bool) bool {
	e.check()
	e.stats.Passes++
	woke := e.woke
	e.woke = false
	seq, paid, prog := e.watch.Seq(), e.paid, false
	if paid {
		seq, e.paid = e.paidSeq, false
	} else {
		prog = e.promote(p)
	}
	for i, s := range e.shared {
		if s.Poll(p, paid && i == 0) {
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
	if woke {
		e.stats.Wakes++
		if !prog {
			e.stats.EmptyWakes++
		}
	}
	if !prog && block {
		e.wait(p, seq, fold)
	}
	return prog
}

// wait parks the rank on its watch until a notification newer than seq,
// then charges the poll detection. The pass after it, if the rank makes one
// before it stops waiting, counts as a wake (ProgressStats.Wakes).
//
// With fold set the caller makes that pass next whatever the wait sees, so
// given a ready answer from the first shared poll and no fulfilled dial,
// the detection and the pass's first charge are one chain on the watch. A
// notification in the detection cuts it and the pass runs as written; one
// in the charge cannot cut it, and the paid pass keeps the count read
// before the chain, as the literal pass read it before paying (DESIGN.md
// §16 item 4).
func (e *Engine) wait(p *des.Proc, seq uint64, fold bool) {
	e.park(seq)
	e.watch.Await(p, seq)
	detect := e.node.Params.PollDetect
	next, ok := des.Step{}, false
	if fold && detect > 0 && e.ready.Len() == 0 && len(e.shared) > 0 {
		next, ok = e.shared[0].Ready()
	}
	if ok {
		e.wakeSteps = [2]des.Step{{D: detect, Hops: 1}, next}
		e.paidSeq = e.watch.Seq()
		e.paid = e.watch.SleepChain(p, e.wakeSteps[:]) == 2
	} else {
		p.Sleep(detect)
	}
	e.unpark()
	e.woke = true
}

// pollFrom walks the active list once, from the first peer at or after
// start, polling the slots whose answer is busy. The cursor rotates over
// the full rank space and is binary-searched into the active list: the peer
// polled first each pass is exactly the one the original all-slots scan
// would have reached, so the poll schedule (and with it every calibrated
// figure) is unchanged — only the nil-slot skipping went away.
//
// Endpoints whose poll would only pay its charge are not polled one event
// at a time: a run of charged answers is slept as one chain on the rank's
// watch, whose notification cuts it at the endpoint being charged when
// anything observable changes. The endpoints before that one were charged with
// nothing to see; it alone looks, exactly when its own Poll would have, and
// the pass carries on from the next slot. A free answer between two of them
// does not end the run: the slot-by-slot pass would find nothing there at
// that step boundary, where nothing is minted, so the chain's keys are the
// same; a touch from another process comes with a notification, which
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
			e.idleRun = append(e.idleRun, e.actEp[k])
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
		paid := e.watch.SleepChain(p, e.idleSteps)
		for _, ep := range e.idleRun[:paid-1] {
			pollCharged(p, ep, false)
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
func pollCharged(p *des.Proc, ep Endpoint, look bool) bool {
	return ep.(interface{ PollCharged(*des.Proc, bool) bool }).PollCharged(p, look)
}

// answer returns active slot k's answer: the one it holds, or its
// endpoint's, which is held when idle.
func (e *Engine) answer(k int) idleAnswer {
	if a := e.held[k]; a.ok {
		e.checkHeld(k)
		return a
	}
	e.stats.IdleAsks++
	var a idleAnswer
	if a.step, a.ok = e.actEp[k].IdlePoll(); a.ok {
		e.hold(k, a)
	}
	return a
}

// Wait blocks until the request completes, driving progress.
func (e *Engine) Wait(p *des.Proc, req *Request) Status {
	e.checkRequest(req, true)
	for !req.done {
		e.progress(p, true, true)
	}
	if invariants && e.paid {
		panic(fmt.Sprintf("transport: rank %d: request (peer %d, tag %d, ctx %d) completed while the rank slept its woken pass's first charge",
			e.rank, req.peer, req.tag, req.ctx))
	}
	e.woke = false
	e.check()
	return req.Status()
}

// ProgressUntil drives progress until done reports true. Reaping a
// completion is not "connection progress", so the rank's watch is
// snapshotted before each non-blocking pass: if the pass made done true the
// loop exits; otherwise it sleeps until anything new lands.
func (e *Engine) ProgressUntil(p *des.Proc, done func() bool) {
	for !done() {
		seq := e.watch.Seq()
		e.Progress(p, false)
		if done() {
			return
		}
		e.wait(p, seq, false)
	}
	e.woke = false
}

// WaitAll blocks until every request completes.
func (e *Engine) WaitAll(p *des.Proc, reqs ...*Request) {
	for _, r := range reqs {
		e.Wait(p, r)
	}
}
