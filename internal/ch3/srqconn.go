package ch3

import (
	"slices"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// SRQConn is the CH3 engine over the SRQ-backed eager mode (DESIGN.md §9),
// its message carrier: each packet is one two-sided IB send, staged whole
// into a slot of the process's send pool (or not at all — the sender stalls
// on the pool, there is no per-peer credit loop) and landing in a slot of
// the peer's shared receive pool (rdmachan.SRQPool), which dispatches
// arrivals by receiving queue pair. A connection's own memory is one queue
// pair — the footprint that makes wide jobs affordable (and lazy
// connections worth establishing) — and its rendezvous threshold is one
// slot payload.
//
// The fault recovery of a resilient pool lives here too, because only a
// connection that is nothing but a queue pair can have it: retain every
// packet until acknowledged, re-dial onto a surviving rail, resend
// (DESIGN.md §11).
type SRQConn struct {
	engine
	pool  *rdmachan.SRQPool
	qp    *ib.QP
	touch func() // drops the idle answer the transport holds (WatchIdle), or nil

	hdrScratch [hdrSize]byte

	// Fault recovery (resilient pools only). Every staged packet is retained
	// in unacked until its success completion; an error completion means the
	// packet definitively never landed, so after the connection is re-dialed
	// the retained packets are re-queued in their original order —
	// exactly-once, no duplicates. A failed rendezvous write puts its send
	// back in sendRndv, so the transfer restarts from the RTS. gotRTS
	// suppresses duplicate announcements from a recovering sender.
	unacked    []*packet
	staged     int // packets in flight on the current queue pair
	brokenFlag bool
	redialled  bool // a re-dial has been requested for this outage
	redial     func()
	nextPool   *rdmachan.SRQPool // set by Reconnect; adopted from Poll
	nextQP     *ib.QP
	gotRTS     map[uint64]bool

	// Packets are numbered when first staged (header seq). Once a re-dial
	// moves the connection to another rail, packets that landed in the old
	// rail's pool and resends landing in the new one are dispatched in
	// whichever order the pools are polled, so the receiver holds a packet
	// that overtook its predecessor in early until the gap fills: MPI's
	// non-overtaking order survives the move.
	sendSeq, recvSeq uint64
	early            map[uint64][]byte
}

// NewSRQPair wires one SRQ-mode connection between two ranks' pools: a
// queue pair per side, attached to its pool's shared receive queue and
// CQs, connected and bound for dispatch.
func NewSRQPair(pa, pb *rdmachan.SRQPool, ha, hb transport.Handler,
	onErrA, onErrB func(error)) (*SRQConn, *SRQConn, error) {
	qa, qb := pa.CreateQP(), pb.CreateQP()
	if err := ib.Connect(qa, qb); err != nil {
		return nil, nil, err
	}
	a := newSRQConn(pa, qa, ha, onErrA)
	b := newSRQConn(pb, qb, hb, onErrB)
	pa.Bind(qa, a)
	pb.Bind(qb, b)
	return a, b, nil
}

func newSRQConn(pool *rdmachan.SRQPool, qp *ib.QP, h transport.Handler,
	onErr func(error)) *SRQConn {
	c := &SRQConn{pool: pool, qp: qp}
	c.engine = engine{
		car: c, rails: (*srqRail)(c), nRails: 1, self: c, h: h, onErr: onErr,
		messages: true, resilient: pool.Resilient(),
		threshold: rdmachan.SRQSlotSize - hdrSize,
	}
	c.mover = rdmachan.NewMover(c.rails, c.resilient)
	if c.resilient {
		c.gotRTS = make(map[uint64]bool)
		c.early = make(map[uint64][]byte)
	}
	return c
}

// srqRail is the connection seen as a rail set of one: its queue pair and
// its pool's pin-down cache. The rail dies when a completion says so, not
// sooner — a write posted on a queue pair already in error comes back as
// that completion.
type srqRail SRQConn

func (r *srqRail) RailQP(int) *ib.QP                       { return r.qp }
func (r *srqRail) RailRegCache(int) *regcache.Cache        { return r.pool.RegCache() }
func (r *srqRail) StripeUnit() int                         { return 0 } // one rail: never striped
func (r *srqRail) StripeCount(int) int                     { return 1 }
func (r *srqRail) RailAlive(int) bool                      { return !r.brokenFlag }
func (r *srqRail) EvictRail(int)                           { r.brokenFlag = true }
func (r *srqRail) OnCQE(fn func(*des.Proc, ib.CQE)) uint64 { return r.pool.OnCQE(fn) }

// SetRedial installs the connection's re-dial trigger (the cluster's lazy
// connection manager): called at most once per outage, when the connection
// is broken and has work to recover.
func (c *SRQConn) SetRedial(fn func()) { c.redial = fn }

// Reconnect hands the connection a replacement queue pair (already
// connected to the peer's replacement and bound on its pool, possibly on
// a different rail). The swap is deferred: the owning progress loop adopts
// the new pair once every packet staged on the old one has completed —
// success or flush error — so the retained-packet set is final.
func (c *SRQConn) Reconnect(pool *rdmachan.SRQPool, qp *ib.QP) {
	c.nextPool, c.nextQP = pool, qp
}

// broken reports whether the current queue pair can no longer send.
func (c *SRQConn) broken() bool {
	return c.brokenFlag || c.qp.State() == ib.QPError
}

// maybeRedial asks the cluster for a replacement connection, once per
// outage, and only when there is something to recover — either queued or
// retained traffic of our own, or rendezvous state a peer is waiting on.
func (c *SRQConn) maybeRedial() {
	if c.redialled || c.redial == nil || c.nextQP != nil {
		return
	}
	if c.ctrlq.Len()+c.dataq.Len()+len(c.unacked)+len(c.sendRndv)+
		len(c.recvRndv)+c.mover.InFlight() == 0 {
		return
	}
	c.redialled = true
	c.redial()
}

// adopt swaps in the re-dialed queue pair and re-queues retained packets,
// oldest first, ahead of anything queued during the outage; rendezvous
// sends whose RTS is neither queued nor retained are re-announced (their
// CTS advertised keys died with the old rail, so the peer answers the new
// RTS with fresh ones).
func (c *SRQConn) adopt(p *des.Proc) {
	if c.nextPool != c.pool {
		// The old pool's adapter is gone for this connection: the mover's
		// write class on it with it, and the registrations accepted receives
		// hold there are abandoned — their CTS is re-keyed on the new pool.
		c.mover.Detach()
		for _, rr := range c.recvRndv {
			rr.keyed, rr.mrs = false, [maxHdrRails]*ib.MR{}
		}
	}
	c.pool, c.qp = c.nextPool, c.nextQP
	c.nextPool, c.nextQP = nil, nil
	c.brokenFlag, c.redialled = false, false

	var ctrl, data []*packet
	for _, pk := range c.unacked {
		if pk.hdr.kind == pktCTS || pk.hdr.kind == pktFIN {
			ctrl = append(ctrl, pk)
		} else {
			data = append(data, pk)
		}
	}
	c.unacked = nil
	requeueAhead(&c.ctrlq, ctrl)
	requeueAhead(&c.dataq, data)

	ids := make([]uint64, 0, len(c.sendRndv))
	for id := range c.sendRndv {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	queued := c.dataq.Pending() // RTS packets travel on dataq only
	for _, id := range ids {
		isRTS := func(pk *packet) bool { return pk.hdr.kind == pktRTS && pk.hdr.reqID == id }
		if !slices.ContainsFunc(queued, isRTS) {
			c.put(&c.dataq, packet{hdr: header{kind: pktRTS, env: c.sendRndv[id].env, reqID: id}})
		}
	}
	c.flush(p)
}

// requeueAhead puts first, in order, ahead of everything q holds.
func requeueAhead(q *des.Queue[*packet], first []*packet) {
	for pk, ok := q.TryGet(); ok; pk, ok = q.TryGet() {
		first = append(first, pk)
	}
	for _, pk := range first {
		q.Put(pk)
	}
}

// IdlePoll implements transport's idle-poll hook. Arrivals come through the
// transport's poll of the pool, so without resilience Poll is flush and
// nothing else, and flush with both queues empty is a no-op: the answer is
// free while no packet is queued. A resilient connection recovers in Poll,
// from state completions change behind its back, so it is always busy.
func (c *SRQConn) IdlePoll() (des.Step, bool) {
	return des.Step{}, !c.resilient && !c.HoldsWork()
}

// WatchIdle implements transport's idle-poll hook: flush touches the slot
// whenever it leaves packets queued.
func (c *SRQConn) WatchIdle(touch func()) { c.touch = touch }

// HoldsWork reports whether packets wait to be staged: the only work a
// Poll of a connection that is not resilient finds.
func (c *SRQConn) HoldsWork() bool { return c.ctrlq.Len()+c.dataq.Len() > 0 }

// Pool returns the process pool this connection draws from.
func (c *SRQConn) Pool() *rdmachan.SRQPool { return c.pool }

// Footprint reports the connection's dedicated memory: one queue pair and
// nothing else — eager buffering lives in the process pool.
func (c *SRQConn) Footprint() rdmachan.Footprint {
	return rdmachan.Footprint{QPs: 1}
}

func (c *SRQConn) admit(*packet) {}

// pump and nudge both stage at once: every put must be followed by a flush
// (a packet left queued without one never touches the slot).
func (c *SRQConn) pump(p *des.Proc)  { c.flush(p) }
func (c *SRQConn) nudge(p *des.Proc) { c.flush(p) }

// flush stages queued packets into the process send pool until it runs out
// of slots and, when some stay queued, touches the slot so the transport
// polls the connection to retry them. On a broken resilient connection it
// stages nothing and instead triggers the re-dial (once per outage). It
// reports whether anything moved.
func (c *SRQConn) flush(p *des.Proc) bool {
	if c.resilient && (c.broken() || c.nextQP != nil) {
		c.maybeRedial()
		return false
	}
	prog, _ := c.drain(p)
	if c.touch != nil && c.HoldsWork() {
		c.touch()
	}
	return prog
}

// push stages pk into a send slot, or reports the staging pool exhausted
// (the packet is retried from Poll). A resilient connection sends the
// retained copy, whose completion callbacks take it out of unacked or mark
// the connection broken.
func (c *SRQConn) push(p *des.Proc, pk *packet) (done, moved bool, err error) {
	if !c.resilient {
		encodeHeader(c.hdrScratch[:], pk.hdr)
		ok, err := c.pool.Send(p, c.qp, c.hdrScratch[:], pk.payload, pk.onSent)
		return ok, ok, err
	}
	if pk.pkt == nil || pk.rekey {
		if err := c.buildPkt(p, pk); err != nil {
			return false, false, err
		}
	}
	ok, err := c.pool.SendPkt(p, c.qp, pk.pkt, c.ackFn(pk), c.failFn)
	if ok {
		c.staged++
		c.unacked = append(c.unacked, pk)
	}
	return ok, ok, err
}

// buildPkt assembles (or, for a rekey CTS, reassembles) pk's packet bytes.
// Eager payloads are resolved exactly once, before onDone frees the user
// buffer; resends reuse the retained copy.
func (c *SRQConn) buildPkt(p *des.Proc, pk *packet) error {
	if pk.rekey {
		rr := c.recvRndv[pk.hdr.reqID]
		if rr == nil {
			return errf("CTS for vanished rendezvous %d", pk.hdr.reqID)
		}
		if err := c.advertise(p, rr, &pk.hdr); err != nil {
			return err
		}
	}
	if pk.hdr.seq == 0 {
		c.sendSeq++
		pk.hdr.seq = c.sendSeq
	}
	pkt := make([]byte, hdrSize, hdrSize+pk.payload.Len)
	encodeHeader(pkt, pk.hdr)
	if pk.payload.Len > 0 {
		src, err := c.qp.HCA().Node().Mem.Resolve(pk.payload.Addr, pk.payload.Len)
		if err != nil {
			return err
		}
		pkt = append(pkt, src...)
	}
	pk.pkt = pkt
	return nil
}

// ackFn returns pk's success-completion callback: the packet landed in a
// peer pool slot, so it leaves the retained set for good.
func (c *SRQConn) ackFn(pk *packet) func(p *des.Proc) {
	return func(p *des.Proc) {
		c.staged--
		if i := slices.Index(c.unacked, pk); i >= 0 {
			c.unacked = slices.Delete(c.unacked, i, i+1)
		}
		onSent := pk.onSent
		c.free = append(c.free, pk)
		if onSent != nil {
			onSent(p)
		}
	}
}

// failFn is the error-completion callback of every retained packet: it
// definitively never landed (flush or retry exhaustion) and stays in
// unacked for re-queueing after the re-dial.
func (c *SRQConn) failFn(*des.Proc) {
	c.staged--
	c.brokenFlag = true
}

// HandleSRQPacket implements rdmachan.SRQDispatch: one packet arrived into
// a pool slot on this connection's queue pair. The slot is reusable as
// soon as this returns, so eager payloads copy out immediately — and so
// does a resilient packet that arrived ahead of its predecessor, whole,
// to be delivered after it.
func (c *SRQConn) HandleSRQPacket(p *des.Proc, pkt []byte) {
	h, ok := c.decode(pkt, len(pkt)-hdrSize)
	switch {
	case !ok:
		return
	case !c.resilient:
		c.deliver(p, h, pkt)
		return
	case h.seq != c.recvSeq+1:
		c.early[h.seq] = slices.Clone(pkt)
		c.qp.HCA().Node().Bus.Memcpy(p, len(pkt), len(pkt))
		return
	}
	for ok {
		c.recvSeq++
		c.deliver(p, h, pkt)
		if pkt, ok = c.early[c.recvSeq+1]; ok {
			delete(c.early, c.recvSeq+1)
			h = decodeHeader(pkt)
		}
	}
}

// deliver acts on one packet, in stream order.
func (c *SRQConn) deliver(p *des.Proc, h header, pkt []byte) {
	if c.resilient {
		switch {
		case h.kind == pktRTS && c.duplicateRTS(p, h):
			return
		case h.kind == pktFIN:
			delete(c.gotRTS, h.reqID)
		}
	}
	sink, eager := c.dispatch(p, h)
	if !eager {
		return
	}
	if h.env.Len > 0 {
		node := c.qp.HCA().Node()
		dst, err := node.Mem.Resolve(sink.Buf.Addr, h.env.Len)
		if err != nil {
			c.onErr(errf("srq eager sink: %w", err))
			return
		}
		copy(dst, pkt[hdrSize:hdrSize+h.env.Len])
		node.Bus.Memcpy(p, h.env.Len, h.env.Len)
	}
	if sink.Done != nil {
		sink.Done(p)
	}
}

// duplicateRTS reports a re-announcement: a sender that recovered from a
// failure re-announces every rendezvous whose CTS answer it never acted
// on. The first announcement goes to the transport; a duplicate
// re-advertises the posted buffer with fresh keys — unless a CTS for it is
// already queued or retained, in which case recovery will (re)send that
// one.
func (c *SRQConn) duplicateRTS(p *des.Proc, h header) bool {
	if !c.gotRTS[h.reqID] {
		c.gotRTS[h.reqID] = true
		return false
	}
	if c.recvRndv[h.reqID] == nil {
		return true // the matching receive is not yet posted; Accept will answer
	}
	isCTS := func(pk *packet) bool { return pk.hdr.kind == pktCTS && pk.hdr.reqID == h.reqID }
	if slices.ContainsFunc(c.ctrlq.Pending(), isCTS) || slices.ContainsFunc(c.unacked, isCTS) {
		return true
	}
	c.put(&c.ctrlq, packet{hdr: header{kind: pktCTS, reqID: h.reqID}, rekey: true})
	c.flush(p)
	return true
}

// Poll implements transport.Endpoint: retry this connection's stalled sends
// (arrivals come through the transport's poll of the pool). On a resilient
// connection this is also where recovery happens: a re-dialed queue pair is
// adopted once the old one's completions have fully drained (the pool poll
// reaps them), and a broken connection with work pending asks the cluster
// for a re-dial.
func (c *SRQConn) Poll(p *des.Proc) bool {
	adopted := false
	if c.resilient {
		// Adoption waits for the old queue pair's completions to fully
		// drain — staged packets AND signaled rendezvous writes. A large
		// write occupies the wire long past the outage, and its flush
		// completion lands in the old pool's CQ: switch pools before it
		// arrives and it is stranded there forever, the rendezvous with it.
		if adopted = c.nextQP != nil && c.staged == 0 && c.mover.InFlight() == 0; adopted {
			c.adopt(p)
		} else if c.broken() {
			c.maybeRedial()
		}
	}
	return c.flush(p) || adopted
}
