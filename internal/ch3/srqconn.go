package ch3

import (
	"sort"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// SRQConn is the SRQ-backed eager mode of the CH3 layer (DESIGN.md §9):
// the packet protocol of Conn — the same 64-byte headers, the same
// RTS/CTS/FIN rendezvous by RDMA write — but carried by two-sided IB sends
// into the process's shared receive pool (rdmachan.SRQPool) instead of a
// dedicated per-connection chunk ring.
//
// The differences from Conn follow from the shared pool:
//
//   - Inbound eager slots belong to the process, not the connection, so a
//     connection's memory is one queue pair — the footprint that makes
//     wide jobs affordable (and lazy connections worth establishing).
//   - There is no per-peer credit loop. Senders stall on the process's
//     staging pool, receivers refill the shared queue as they poll, and
//     the RNR limited-retry protocol (ib.QP.deliverSend) absorbs bursts
//     that outrun the refill.
//   - Packets are message-framed by the transport (one send per packet),
//     so there is no byte-pipe state machine; arrival dispatch comes from
//     the pool by receiving queue pair.
//
// It implements transport.Endpoint with an engine-level rendezvous
// threshold of one slot payload, exactly like the direct CH3 design.
type SRQConn struct {
	// sharedPoll and resilient cache pool properties, uniform across every
	// pool of a cluster. ctrlq and dataq are the send side: strict FIFO per
	// queue; control packets (CTS, FIN) win so rendezvous answers do not
	// starve behind bulk eager traffic. Eager and RTS packets share dataq,
	// preserving MPI envelope order. free holds packet records whose packet
	// is staged (acknowledged, when resilient) for the next put to reuse.
	sharedPoll bool // pool.SharedProgress(): the engine polls the pool
	resilient  bool // pool.Resilient()
	ctrlq      des.Queue[*srqOp]
	dataq      des.Queue[*srqOp]
	free       []*srqOp
	arm        func() // asks the engine for a Poll; nil unless FreeIdlePoll promised

	pool  *rdmachan.SRQPool
	qp    *ib.QP
	h     transport.Handler
	onErr func(error)

	threshold int
	reqSeq    uint64

	sendRndv map[uint64]*rndvSend
	recvRndv map[uint64]*srqRndvRecv

	hdrScratch [hdrSize]byte

	// Fault recovery (resilient pools only; DESIGN.md §11). Every staged
	// packet is retained in unacked until its success completion; an error
	// completion means the packet definitively never landed, so after the
	// connection is re-dialed the retained packets are re-queued in their
	// original order — exactly-once, no duplicates. pendingWrites holds
	// rendezvous payloads whose (signaled) RDMA write is in flight; a
	// failed write restores its sendRndv entry so the transfer restarts
	// from the RTS. gotRTS suppresses duplicate announcements from a
	// recovering sender.
	unacked        []*srqOp
	staged         int // packets in flight on the current queue pair
	writesInFlight int // signaled rendezvous writes awaiting completion
	brokenFlag     bool
	redialled      bool // a re-dial has been requested for this outage
	redial         func()
	nextPool       *rdmachan.SRQPool // set by Reconnect; adopted from Poll
	nextQP         *ib.QP
	pendingWrites  map[uint64]*rndvSend
	gotRTS         map[uint64]bool

	stats Stats
}

// srqOp is one queued outbound packet.
type srqOp struct {
	hdr     header
	payload transport.Buffer  // eager payload; zero-length for control
	onDone  func(p *des.Proc) // runs when the packet is accepted (staged)
	onSent  func(p *des.Proc) // runs at the packet's completion (CQE)

	// Resilient mode: the assembled packet bytes, retained for resend (the
	// user buffer is reusable once onDone ran, so resends use this copy);
	// rekey marks a CTS whose advertisement must be (re)registered on the
	// current pool when the packet is built.
	pkt      []byte
	eagerLen int
	rekey    bool
}

// srqRndvRecv tracks an accepted rendezvous on the receive side. In
// resilient mode the registration is deferred to packet build time and
// remembers its pool: after a re-dial onto a different rail the CTS is
// re-registered there, and the FIN only releases a registration made on
// the pool that is still current (one made on a dead rail is abandoned
// with its adapter).
type srqRndvRecv struct {
	mr   *ib.MR
	done func(p *des.Proc)
	dst  transport.Buffer
	pool *rdmachan.SRQPool
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
	c := &SRQConn{
		pool:       pool,
		qp:         qp,
		h:          h,
		onErr:      onErr,
		sharedPoll: pool.SharedProgress(),
		resilient:  pool.Resilient(),
		threshold:  pool.SlotSize() - hdrSize,
		sendRndv:   make(map[uint64]*rndvSend),
		recvRndv:   make(map[uint64]*srqRndvRecv),
	}
	if pool.Resilient() {
		c.pendingWrites = make(map[uint64]*rndvSend)
		c.gotRTS = make(map[uint64]bool)
	}
	return c
}

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
		len(c.recvRndv)+len(c.pendingWrites) == 0 {
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
	c.pool, c.qp = c.nextPool, c.nextQP
	c.nextPool, c.nextQP = nil, nil
	c.brokenFlag, c.redialled = false, false
	c.stats.Reconnects++

	var ctrl, data []*srqOp
	for _, op := range c.unacked {
		op.onDone = nil // already ran when the packet was first accepted
		if op.hdr.kind == pktCTS || op.hdr.kind == pktFIN {
			ctrl = append(ctrl, op)
		} else {
			data = append(data, op)
		}
	}
	c.unacked = nil
	c.stats.Resends += uint64(len(ctrl) + len(data))
	requeueAhead(&c.ctrlq, ctrl)
	requeueAhead(&c.dataq, data)

	have := make(map[uint64]bool) // RTS packets travel on dataq only
	for _, op := range c.dataq.Pending() {
		if op.hdr.kind == pktRTS {
			have[op.hdr.reqID] = true
		}
	}
	ids := make([]uint64, 0, len(c.sendRndv))
	for id := range c.sendRndv {
		if !have[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rs := c.sendRndv[id]
		c.put(&c.dataq, srqOp{hdr: header{kind: pktRTS, env: rs.env, reqID: id}})
	}
	c.flush(p)
}

// requeueAhead puts first, in order, ahead of everything q holds.
func requeueAhead(q *des.Queue[*srqOp], first []*srqOp) {
	for op, ok := q.TryGet(); ok; op, ok = q.TryGet() {
		first = append(first, op)
	}
	for _, op := range first {
		q.Put(op)
	}
}

// put queues op on q in a recycled packet record when there is one; every
// caller follows up with flush.
func (c *SRQConn) put(q *des.Queue[*srqOp], op srqOp) {
	var rec *srqOp
	if n := len(c.free); n > 0 {
		rec, c.free = c.free[n-1], c.free[:n-1]
	} else {
		rec = new(srqOp)
	}
	*rec = op
	q.Put(rec)
}

// FreeIdlePoll implements transport.FreeIdler. On a shared-progress pool
// without resilience arrivals come through the engine's pool poll, so Poll
// is flush and nothing else, and flush with both queues empty is a no-op:
// the connection needs a Poll only while packets are queued, and flush asks
// for one whenever it leaves some behind.
func (c *SRQConn) FreeIdlePoll(arm func()) bool {
	if !c.sharedPoll || c.resilient {
		return false
	}
	c.arm = arm
	if c.ctrlq.Len()+c.dataq.Len() > 0 {
		arm()
	}
	return true
}

// Pool returns the process pool this connection draws from.
func (c *SRQConn) Pool() *rdmachan.SRQPool { return c.pool }

// QP returns the connection's queue pair.
func (c *SRQConn) QP() *ib.QP { return c.qp }

// Stats returns packet counters.
func (c *SRQConn) Stats() Stats { return c.stats }

// Pending reports queued-but-incomplete outbound work (diagnostics).
func (c *SRQConn) Pending() int {
	return c.ctrlq.Len() + c.dataq.Len() + len(c.sendRndv) +
		len(c.unacked) + len(c.pendingWrites)
}

// Footprint reports the connection's dedicated memory: one queue pair and
// nothing else — eager buffering lives in the process pool.
func (c *SRQConn) Footprint() rdmachan.Footprint {
	return rdmachan.Footprint{QPs: 1}
}

// RendezvousThreshold implements transport.Endpoint: payloads that exceed
// one pool slot take the CH3 rendezvous.
func (c *SRQConn) RendezvousThreshold() int { return c.threshold }

// SendEager implements transport.Endpoint. onDone runs once the payload is
// staged into the process send pool (the local buffer is then reusable).
func (c *SRQConn) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.stats.EagerSends++
	c.put(&c.dataq, srqOp{hdr: header{kind: pktEager, env: env},
		payload: payload, onDone: onDone})
	c.flush(p)
}

// SendRendezvous implements transport.Endpoint: announce with RTS; the
// payload moves by RDMA write after the peer's CTS.
func (c *SRQConn) SendRendezvous(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.stats.RndvSends++
	c.reqSeq++
	id := c.reqSeq
	c.sendRndv[id] = &rndvSend{payload: payload, onDone: onDone, env: env}
	c.put(&c.dataq, srqOp{hdr: header{kind: pktRTS, env: env, reqID: id}})
	c.flush(p)
}

// AcceptRendezvous implements transport.Endpoint: register the posted
// receive buffer through the process pin-down cache and advertise it with
// a CTS packet.
func (c *SRQConn) AcceptRendezvous(p *des.Proc, reqID uint64, dst transport.Buffer,
	done func(p *des.Proc)) {
	if c.resilient {
		// Registration is deferred to packet build time (rekey): if the
		// connection re-dials onto another rail before the CTS goes out,
		// the buffer is registered on the pool that is current then.
		c.recvRndv[reqID] = &srqRndvRecv{dst: dst, done: done}
		c.stats.RndvRecvs++
		c.put(&c.ctrlq, srqOp{hdr: header{kind: pktCTS, reqID: reqID}, rekey: true})
		c.flush(p)
		return
	}
	cache := c.pool.RegCache()
	mr, _, err := cache.Register(p, dst.Addr, dst.Len)
	if err != nil {
		c.onErr(errf("srq rendezvous register: %w", err))
		return
	}
	c.recvRndv[reqID] = &srqRndvRecv{mr: mr, done: done}
	c.stats.RndvRecvs++
	c.put(&c.ctrlq, srqOp{
		hdr: header{kind: pktCTS, reqID: reqID, raddr: dst.Addr, rkeys: [maxHdrRails]uint32{mr.RKey()}},
	})
	c.flush(p)
}

// handleCTS fires the RDMA write of the payload and queues the FIN. RC
// ordering puts the FIN behind the payload on the wire; the FIN's own
// completion then implies the payload landed, so the sender's buffer
// becomes reusable at the FIN CQE.
func (c *SRQConn) handleCTS(p *des.Proc, h header) {
	rs, ok := c.sendRndv[h.reqID]
	if !ok {
		if c.resilient {
			// A stale duplicate: the transfer is already past the CTS
			// (its write is in flight or done) under an earlier answer.
			return
		}
		c.onErr(errf("srq CTS for unknown rendezvous %d", h.reqID))
		return
	}
	delete(c.sendRndv, h.reqID)
	cache := c.pool.RegCache()
	mr, _, err := cache.Register(p, rs.payload.Addr, rs.payload.Len)
	if err != nil {
		c.onErr(errf("srq rendezvous source register: %w", err))
		return
	}
	if c.resilient {
		// Signaled write: the FIN is queued only at the write's success
		// completion (an error restores the rendezvous for re-announcement
		// after recovery — the RC ordering shortcut below can't tell
		// whether a flushed write landed, a counted completion can).
		id := h.reqID
		wrid := c.pool.OnCQE(func(q *des.Proc, cqe ib.CQE) { c.writeDone(q, id, cqe) })
		c.pendingWrites[id] = rs
		c.writesInFlight++
		c.qp.PostSend(p, ib.SendWR{
			WRID: wrid, Op: ib.OpRDMAWrite, Signaled: true,
			SGL:        []ib.SGE{{Addr: rs.payload.Addr, Len: rs.payload.Len, LKey: mr.LKey()}},
			RemoteAddr: h.raddr,
			RKey:       h.rkeys[0],
		})
		if err := cache.Release(p, mr); err != nil {
			c.onErr(errf("srq rendezvous source release: %w", err))
		}
		return
	}
	c.qp.PostSend(p, ib.SendWR{
		Op:         ib.OpRDMAWrite,
		SGL:        []ib.SGE{{Addr: rs.payload.Addr, Len: rs.payload.Len, LKey: mr.LKey()}},
		RemoteAddr: h.raddr,
		RKey:       h.rkeys[0],
	})
	if err := cache.Release(p, mr); err != nil {
		c.onErr(errf("srq rendezvous source release: %w", err))
		return
	}
	c.put(&c.ctrlq, srqOp{
		hdr:    header{kind: pktFIN, reqID: h.reqID},
		onSent: rs.onDone,
	})
	c.flush(p)
}

// writeDone reaps a resilient rendezvous write completion: on success the
// payload is in the peer's buffer and the FIN may go out; on error the
// write never landed (QP error semantics), so the rendezvous re-enters
// sendRndv and restarts from the RTS once the connection is re-dialed.
func (c *SRQConn) writeDone(p *des.Proc, id uint64, cqe ib.CQE) {
	c.writesInFlight--
	rs, ok := c.pendingWrites[id]
	if !ok {
		c.onErr(errf("srq write completion for unknown rendezvous %d", id))
		return
	}
	delete(c.pendingWrites, id)
	if cqe.Status != ib.StatusSuccess {
		c.brokenFlag = true
		c.sendRndv[id] = rs
		return
	}
	c.put(&c.ctrlq, srqOp{
		hdr:    header{kind: pktFIN, reqID: id},
		onSent: rs.onDone,
	})
	c.flush(p)
}

// handleFIN completes a rendezvous receive: the payload preceded the FIN
// on the queue pair, so it is already in the user buffer.
func (c *SRQConn) handleFIN(p *des.Proc, h header) {
	rr, ok := c.recvRndv[h.reqID]
	if !ok {
		c.onErr(errf("srq FIN for unknown rendezvous %d", h.reqID))
		return
	}
	delete(c.recvRndv, h.reqID)
	if c.resilient {
		delete(c.gotRTS, h.reqID)
		// Release only a registration made on the pool that is still
		// current; one made on a rail that died is abandoned with its
		// adapter.
		if rr.mr != nil && rr.pool == c.pool {
			if err := c.pool.RegCache().Release(p, rr.mr); err != nil {
				c.onErr(errf("srq rendezvous dest release: %w", err))
				return
			}
		}
	} else if err := c.pool.RegCache().Release(p, rr.mr); err != nil {
		c.onErr(errf("srq rendezvous dest release: %w", err))
		return
	}
	if rr.done != nil {
		rr.done(p)
	}
}

// flush stages queued packets into the process send pool and, when some
// stay queued on a connection that promised a free idle poll, asks the
// engine for the Poll that retries them. It reports whether anything moved.
func (c *SRQConn) flush(p *des.Proc) bool {
	prog := c.stage(p)
	if c.arm != nil && c.ctrlq.Len()+c.dataq.Len() > 0 {
		c.arm()
	}
	return prog
}

// stage is flush's loop: until the pool runs out of slots, control packets
// first. On a broken resilient connection it stages nothing and instead
// triggers the re-dial (once per outage).
func (c *SRQConn) stage(p *des.Proc) bool {
	resilient := c.resilient
	if resilient && (c.broken() || c.nextQP != nil) {
		c.maybeRedial()
		return false
	}
	prog := false
	for {
		q := &c.ctrlq
		op, queued := q.Peek()
		if !queued {
			q = &c.dataq
			if op, queued = q.Peek(); !queued {
				return prog
			}
		}
		var ok bool
		var err error
		if resilient {
			if op.pkt == nil || op.rekey {
				if err = c.buildPkt(p, op); err != nil {
					c.onErr(err)
					return prog
				}
			}
			ok, err = c.pool.SendPkt(p, c.qp, op.pkt, op.eagerLen, c.ackFn(op), c.failFn(op))
		} else {
			encodeHeader(c.hdrScratch[:], op.hdr)
			ok, err = c.pool.Send(p, c.qp, c.hdrScratch[:], op.payload, op.onSent)
		}
		if err != nil {
			c.onErr(errf("srq send: %w", err))
			return prog
		}
		if !ok {
			return prog // staging pool exhausted; retried from Poll
		}
		if resilient {
			c.staged++
			c.unacked = append(c.unacked, op)
		}
		q.TryGet()
		prog = true
		if op.onDone != nil {
			op.onDone(p)
			op.onDone = nil
		}
		if !resilient {
			c.free = append(c.free, op) // staged: nothing refers to it any more
		}
	}
}

// buildPkt assembles (or, for a rekey CTS, reassembles) op's packet bytes.
// Eager payloads are resolved exactly once, before onDone frees the user
// buffer; resends reuse the retained copy.
func (c *SRQConn) buildPkt(p *des.Proc, op *srqOp) error {
	if op.rekey {
		rr := c.recvRndv[op.hdr.reqID]
		if rr == nil {
			return errf("srq CTS for vanished rendezvous %d", op.hdr.reqID)
		}
		if rr.mr == nil || rr.pool != c.pool {
			mr, _, err := c.pool.RegCache().Register(p, rr.dst.Addr, rr.dst.Len)
			if err != nil {
				return errf("srq rendezvous register: %w", err)
			}
			rr.mr, rr.pool = mr, c.pool
		}
		op.hdr.raddr = rr.dst.Addr
		op.hdr.rkeys = [maxHdrRails]uint32{rr.mr.RKey()}
	}
	pkt := make([]byte, hdrSize, hdrSize+op.payload.Len)
	encodeHeader(pkt, op.hdr)
	if op.payload.Len > 0 {
		src, err := c.qp.HCA().Node().Mem.Resolve(op.payload.Addr, op.payload.Len)
		if err != nil {
			return errf("srq send: %w", err)
		}
		pkt = append(pkt, src...)
	}
	op.pkt = pkt
	op.eagerLen = op.payload.Len
	return nil
}

// ackFn returns op's success-completion callback: the packet landed in a
// peer pool slot, so it leaves the retained set for good.
func (c *SRQConn) ackFn(op *srqOp) func(p *des.Proc) {
	return func(p *des.Proc) {
		c.staged--
		for i, o := range c.unacked {
			if o == op {
				c.unacked = append(c.unacked[:i], c.unacked[i+1:]...)
				break
			}
		}
		if op.onSent != nil {
			op.onSent(p)
			op.onSent = nil
		}
		c.free = append(c.free, op)
	}
}

// failFn returns op's error-completion callback: the packet definitively
// never landed (flush or retry exhaustion). It stays in unacked for
// re-queueing after the re-dial.
func (c *SRQConn) failFn(op *srqOp) func(p *des.Proc) {
	return func(p *des.Proc) {
		c.staged--
		c.brokenFlag = true
	}
}

// HandleSRQPacket implements rdmachan.SRQDispatch: one packet arrived into
// a pool slot on this connection's queue pair. The slot is reusable as
// soon as this returns, so eager payloads copy out immediately.
func (c *SRQConn) HandleSRQPacket(p *des.Proc, pkt []byte) {
	h := decodeHeader(pkt[:hdrSize])
	switch h.kind {
	case pktEager:
		sink := c.h.ArriveEager(p, h.env)
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
	case pktRTS:
		if c.resilient {
			c.handleRTSResilient(p, h)
			return
		}
		c.h.ArriveRTS(p, h.env, c, h.reqID)
	case pktCTS:
		c.handleCTS(p, h)
	case pktFIN:
		c.handleFIN(p, h)
	default:
		c.onErr(errf("srq bad packet kind %d", h.kind))
	}
}

// handleRTSResilient dispatches an RTS with duplicate suppression: a
// sender that recovered from a failure re-announces every rendezvous whose
// CTS answer it never acted on. The first announcement goes to the
// transport; a duplicate re-advertises the posted buffer with fresh keys —
// unless a CTS for it is already queued or retained, in which case
// recovery will (re)send that one.
func (c *SRQConn) handleRTSResilient(p *des.Proc, h header) {
	if !c.gotRTS[h.reqID] {
		c.gotRTS[h.reqID] = true
		c.h.ArriveRTS(p, h.env, c, h.reqID)
		return
	}
	if c.recvRndv[h.reqID] == nil {
		return // the matching receive is not yet posted; Accept will answer
	}
	for _, op := range c.ctrlq.Pending() {
		if op.hdr.kind == pktCTS && op.hdr.reqID == h.reqID {
			return
		}
	}
	for _, op := range c.unacked {
		if op.hdr.kind == pktCTS && op.hdr.reqID == h.reqID {
			return
		}
	}
	c.put(&c.ctrlq, srqOp{hdr: header{kind: pktCTS, reqID: h.reqID}, rekey: true})
	c.flush(p)
}

// Poll implements transport.Endpoint: advance the pool (which dispatches
// arrivals for every connection on it) unless the engine polls it as shared
// progress work, and retry this connection's stalled sends. On a resilient
// connection this is also where recovery happens: a re-dialed queue pair is
// adopted once the old one's completions have fully drained (the pool poll
// reaps them), and a broken connection with work pending asks the cluster
// for a re-dial.
func (c *SRQConn) Poll(p *des.Proc) bool {
	prog := false
	if !c.sharedPoll {
		prog = c.pool.Poll(p)
	}
	if c.resilient {
		// Adoption waits for the old queue pair's completions to fully
		// drain — staged packets AND signaled rendezvous writes. A large
		// write occupies the wire long past the outage, and its flush
		// completion lands in the old pool's CQ: switch pools before it
		// arrives and it is stranded there forever, the rendezvous with it.
		if c.nextQP != nil && c.staged == 0 && c.writesInFlight == 0 {
			c.adopt(p)
			prog = true
		} else if c.broken() {
			c.maybeRedial()
		}
	}
	if c.flush(p) {
		prog = true
	}
	return prog
}
