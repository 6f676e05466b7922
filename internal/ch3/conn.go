package ch3

import (
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// Conn is the CH3 packet engine over an RDMA Channel endpoint. It is the
// only send/receive loop in this package; over-channel and direct modes
// share it (see the package comment). It implements transport.Endpoint.
type Conn struct {
	ep    rdmachan.Endpoint
	raw   rdmachan.RawAccess  // non-nil only in direct mode
	idle  rdmachan.IdleGetter // non-nil when an empty Get on ep costs time
	h     transport.Handler
	onErr func(error)

	threshold int // rendezvous switch; 0 = over-channel mode
	reqSeq    uint64

	// Send side: strict FIFO per queue, control packets win at message
	// boundaries (rendezvous answers must not starve behind bulk data).
	ctrlq  des.Queue[*conOp]
	dataq  des.Queue[*conOp]
	active *conOp

	sendRndv map[uint64]*rndvSend
	recvRndv map[uint64]*rndvRecv

	// Striped rendezvous sends in flight (multi-rail direct mode): the
	// completion counter per request, drained by stripe-write CQEs arriving
	// through the endpoint's foreign-CQE hook. kick records that the hook
	// queued a FIN during the current receive sweep — the send phase of
	// that Poll pass has already run, so the pass must report progress or
	// the engine would sleep with the FIN stranded in ctrlq.
	stripes map[uint64]*stripeSend
	kick    bool

	hdrPool []hdrSlot // free header staging slots

	// Receive state machine: header, then payload.
	rstate   int
	rhdrBuf  transport.Buffer
	rhdrMem  []byte
	rhdrRem  []transport.Buffer
	rsink    transport.Sink
	rpayload []transport.Buffer

	stats Stats
}

// Stats counts packet-engine activity.
type Stats struct {
	EagerSends uint64
	RndvSends  uint64
	RndvRecvs  uint64

	// Fault-recovery counters (resilient mode only).
	Reconnects uint64 // re-dialed queue pairs adopted
	Resends    uint64 // retained packets re-queued after a re-dial
}

type conOp struct {
	hdr    hdrSlot // staging slot; recycled when the op drains
	rem    []transport.Buffer
	onDone func(p *des.Proc)
}

// hdrSlot is a reusable 64-byte header staging buffer. Slots return to the
// pool once their packet is fully accepted by the pipe (Put reports bytes
// only after consuming them), so the pool stays as small as the op queue
// ever gets — a real implementation's preallocated packet pool.
type hdrSlot struct {
	va  uint64
	mem []byte
}

type rndvSend struct {
	payload transport.Buffer
	onDone  func(p *des.Proc)
	env     transport.Envelope // retained for re-announcement after recovery
}

type rndvRecv struct {
	mrs  []*ib.MR // indexed by rail; nil = rail not advertised (resilient)
	done func(p *des.Proc)
}

// stripeSend tracks one striped rendezvous payload: pending is the
// completion counter — one signaled RDMA write per ChunkSize stripe, spread
// round-robin over the rails — and the FIN is queued only once it drains,
// because completions (acked end-to-end) are the only cross-rail ordering
// guarantee there is. In resilient mode the send additionally retains the
// per-stripe layout and the receiver's advertisement, so a stripe whose
// rail dies can be re-written over a surviving advertised rail.
type stripeSend struct {
	pending int
	mrs     []*ib.MR // indexed by rail; nil = rail not registered
	onDone  func(p *des.Proc)

	// Resilient re-issue state.
	payload transport.Buffer
	raddr   uint64
	rkeys   [maxHdrRails]uint32
	parts   []stripePart // indexed by the stripe tag in the work-request ID
}

// stripePart is one stripe's layout and current rail assignment.
type stripePart struct {
	off, blk int
	rail     int
}

// wridStripe marks stripe-write completions; the low bits carry the
// rendezvous request id. Resilient sends additionally carry the stripe
// index in bits 32..55, so an error completion identifies which block to
// re-issue (request ids stay well below 2³² in any simulated run).
const (
	wridStripeMark    = uint64(0x3D) << 56
	wridStripeMask    = uint64(0xFF) << 56
	wridStripeIdxMask = uint64(0xFFFFFF) << 32
)

// NewOverChannel builds the packet engine in over-channel mode: every MPI
// message is framed eagerly through the endpoint's byte pipe, and large
// messages are the pipe's own business (the zero-copy design handles them
// below the abstraction). onErr receives any transport error (the
// simulation treats these as fatal protocol bugs).
func NewOverChannel(ep rdmachan.Endpoint, h transport.Handler, onErr func(error)) *Conn {
	return newConn(ep, nil, h, 0, onErr)
}

// NewIBConn builds the packet engine in direct mode over a pipelined chunk
// endpoint created with rdmachan.DesignPipeline (zero-copy must be off:
// rendezvous is handled here, at the CH3 level). threshold is the
// eager/rendezvous switch, 0 meaning the default 32 KB (matching the
// zero-copy design).
func NewIBConn(ep rdmachan.Endpoint, h transport.Handler, threshold int, onErr func(error)) *Conn {
	raw, ok := ep.(rdmachan.RawAccess)
	if !ok {
		panic("ch3: IBConn requires a chunk-ring endpoint")
	}
	if threshold == 0 {
		threshold = 32 << 10
	}
	return newConn(ep, raw, h, threshold, onErr)
}

func newConn(ep rdmachan.Endpoint, raw rdmachan.RawAccess, h transport.Handler,
	threshold int, onErr func(error)) *Conn {
	c := &Conn{
		ep: ep, raw: raw, h: h, onErr: onErr,
		threshold: threshold,
		sendRndv:  make(map[uint64]*rndvSend),
		recvRndv:  make(map[uint64]*rndvRecv),
		stripes:   make(map[uint64]*stripeSend),
	}
	c.idle, _ = ep.(rdmachan.IdleGetter)
	mem := ep.HCA().Node().Mem
	va, b := mem.Alloc(hdrSize)
	c.rhdrBuf, c.rhdrMem = transport.Buffer{Addr: va, Len: hdrSize}, b
	c.rhdrRem = []transport.Buffer{c.rhdrBuf}
	if raw != nil && raw.NRails() > 1 {
		// Striped rendezvous writes complete on the rails' CQs, which the
		// channel endpoint drains; it routes completions it did not
		// generate here.
		raw.SetForeignCQE(c.handleStripeCQE)
	}
	return c
}

// Endpoint returns the underlying channel endpoint (for statistics and the
// one-sided extension's raw-verbs access).
func (c *Conn) Endpoint() rdmachan.Endpoint { return c.ep }

// Footprint reports the connection's dedicated memory — the channel
// endpoint's rings plus queue pair (the packet engine itself adds only
// header staging).
func (c *Conn) Footprint() transport.Footprint {
	if a, ok := c.ep.(interface{ Footprint() rdmachan.Footprint }); ok {
		return a.Footprint()
	}
	return transport.Footprint{QPs: 1}
}

// Stats returns packet-engine counters.
func (c *Conn) Stats() Stats { return c.stats }

// RendezvousThreshold implements transport.Endpoint.
func (c *Conn) RendezvousThreshold() int { return c.threshold }

// newHdrOp stages a packet in a pooled header slot.
func (c *Conn) newHdrOp(h header, payload *transport.Buffer, onDone func(p *des.Proc)) *conOp {
	var slot hdrSlot
	if n := len(c.hdrPool); n > 0 {
		slot = c.hdrPool[n-1]
		c.hdrPool = c.hdrPool[:n-1]
	} else {
		va, b := c.ep.HCA().Node().Mem.Alloc(hdrSize)
		slot = hdrSlot{va: va, mem: b}
	}
	encodeHeader(slot.mem, h)
	rem := []transport.Buffer{{Addr: slot.va, Len: hdrSize}}
	if payload != nil && payload.Len > 0 {
		rem = append(rem, *payload)
	}
	return &conOp{hdr: slot, rem: rem, onDone: onDone}
}

// SendEager implements transport.Endpoint.
func (c *Conn) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.stats.EagerSends++
	op := c.newHdrOp(header{kind: pktEager, env: env}, &payload, onDone)
	c.dataq.Put(op)
	c.Poll(p)
}

// SendRendezvous implements transport.Endpoint: announce with RTS; the
// payload moves after the peer's CTS.
func (c *Conn) SendRendezvous(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	if c.threshold == 0 {
		panic("ch3: SendRendezvous in over-channel mode")
	}
	c.stats.RndvSends++
	c.reqSeq++
	id := c.reqSeq
	c.sendRndv[id] = &rndvSend{payload: payload, onDone: onDone}
	op := c.newHdrOp(header{kind: pktRTS, env: env, reqID: id}, nil, nil)
	c.dataq.Put(op)
	c.Poll(p)
}

// AcceptRendezvous implements transport.Endpoint: the receive matching an
// announced RTS is now posted. Register the user buffer through the
// pin-down cache — on every rail of a multi-rail connection, since each
// adapter validates its own keys — and advertise it with a CTS control
// packet carrying one rkey per rail.
func (c *Conn) AcceptRendezvous(p *des.Proc, reqID uint64, dst transport.Buffer,
	done func(p *des.Proc)) {
	if c.threshold == 0 {
		panic("ch3: AcceptRendezvous in over-channel mode")
	}
	rr := &rndvRecv{done: done}
	var h header
	if c.resilient() {
		// Resilient advertisement: one rkey slot per connection rail, zero
		// for rails that died. The buffer is registered in full on every
		// surviving rail, so the sender may move any stripe to any
		// advertised rail if its first choice fails mid-transfer.
		n := c.raw.NRails()
		h = header{kind: pktCTS, reqID: reqID, raddr: dst.Addr, nRails: byte(n)}
		rr.mrs = make([]*ib.MR, n)
		alive := 0
		for k := 0; k < n; k++ {
			if !c.raw.RailAlive(k) {
				continue
			}
			mr, _, err := c.raw.RailRegCache(k).Register(p, dst.Addr, dst.Len)
			if err != nil {
				c.onErr(errf("rendezvous register: %w", err))
				return
			}
			rr.mrs[k] = mr
			h.rkeys[k] = mr.RKey()
			alive++
		}
		if alive == 0 {
			c.onErr(errf("rendezvous accept: no surviving rail"))
			return
		}
	} else {
		// The receiver decides the stripe count (it advertises the rkeys),
		// and the connection's striping threshold is honoured here exactly
		// as in the zero-copy design: small rendezvous payloads stay on
		// rail 0.
		nRails := c.raw.StripeCount(dst.Len)
		h = header{kind: pktCTS, reqID: reqID, raddr: dst.Addr, nRails: byte(nRails)}
		for k := 0; k < nRails; k++ {
			mr, _, err := c.raw.RailRegCache(k).Register(p, dst.Addr, dst.Len)
			if err != nil {
				c.onErr(errf("rendezvous register: %w", err))
				return
			}
			rr.mrs = append(rr.mrs, mr)
			h.rkeys[k] = mr.RKey()
		}
	}
	c.recvRndv[reqID] = rr
	c.stats.RndvRecvs++
	op := c.newHdrOp(h, nil, nil)
	c.ctrlq.Put(op)
	c.Poll(p)
}

// handleCTS fires the RDMA write of the payload and queues the FIN. On a
// single-rail connection this is one unsignaled write with the FIN queued
// immediately behind it (RC ordering delivers them in order); on a
// multi-rail connection the payload is striped over the advertised rails
// in ChunkSize units of signaled writes — or one signaled write when the
// receiver advertised a single rail (striping threshold) — and the FIN
// waits for the striping completion counter: a requester CQE means the
// write is acked end-to-end, which is the only ordering that spans rails.
// The FIN must never ride the eager pipe concurrently with an
// unacknowledged write, because the pipe rail-picks its chunks and a FIN
// on another rail would overtake the payload.
func (c *Conn) handleCTS(p *des.Proc, h header) {
	rs, ok := c.sendRndv[h.reqID]
	if !ok {
		c.onErr(errf("CTS for unknown rendezvous %d", h.reqID))
		return
	}
	delete(c.sendRndv, h.reqID)
	if c.resilient() && c.raw.NRails() > 1 {
		c.handleCTSResilient(p, h, rs)
		return
	}
	nRails := int(h.nRails)
	if nRails < 1 {
		nRails = 1
	}
	if c.raw.NRails() == 1 {
		cache := c.raw.RegCache()
		mr, _, err := cache.Register(p, rs.payload.Addr, rs.payload.Len)
		if err != nil {
			c.onErr(errf("rendezvous source register: %w", err))
			return
		}
		c.raw.RawQP().PostSend(p, ib.SendWR{
			Op:         ib.OpRDMAWrite,
			SGL:        []ib.SGE{{Addr: rs.payload.Addr, Len: rs.payload.Len, LKey: mr.LKey()}},
			RemoteAddr: h.raddr,
			RKey:       h.rkeys[0],
		})
		// The registration stays cached; RC ordering puts the FIN behind the
		// payload on the wire.
		if err := cache.Release(p, mr); err != nil {
			c.onErr(errf("rendezvous source release: %w", err))
			return
		}
		onDone := rs.onDone
		fin := c.newHdrOp(header{kind: pktFIN, reqID: h.reqID}, nil, onDone)
		c.ctrlq.Put(fin)
		return
	}

	st := &stripeSend{onDone: rs.onDone}
	mrs := make([]*ib.MR, nRails)
	for k := 0; k < nRails; k++ {
		mr, _, err := c.raw.RailRegCache(k).Register(p, rs.payload.Addr, rs.payload.Len)
		if err != nil {
			c.onErr(errf("rendezvous source register: %w", err))
			return
		}
		mrs[k] = mr
	}
	st.mrs = mrs
	unit := c.raw.StripeUnit()
	if nRails == 1 {
		// Single advertised rail on a multi-rail connection (striping
		// threshold): one signaled write, FIN after its completion.
		unit = rs.payload.Len
	}
	wrid := wridStripeMark | h.reqID
	for off, i := 0, 0; off < rs.payload.Len; off, i = off+unit, i+1 {
		blk := rs.payload.Len - off
		if blk > unit {
			blk = unit
		}
		k := i % nRails
		c.raw.RailQP(k).PostSend(p, ib.SendWR{
			WRID: wrid, Op: ib.OpRDMAWrite, Signaled: true,
			SGL:        []ib.SGE{{Addr: rs.payload.Addr + uint64(off), Len: blk, LKey: mrs[k].LKey()}},
			RemoteAddr: h.raddr + uint64(off),
			RKey:       h.rkeys[k],
		})
		st.pending++
	}
	c.stripes[h.reqID] = st
}

// resilient reports whether the connection participates in fault recovery
// (direct mode over a resilient chunk endpoint).
func (c *Conn) resilient() bool { return c.raw != nil && c.raw.Resilient() }

// handleCTSResilient is handleCTS for a resilient multi-rail connection:
// the payload is registered in full on every surviving advertised rail and
// striped round-robin over them, each stripe's work-request ID carrying its
// index so a failed write can be retargeted (DESIGN.md §11).
func (c *Conn) handleCTSResilient(p *des.Proc, h header, rs *rndvSend) {
	n := int(h.nRails)
	if n < 1 || n > c.raw.NRails() {
		c.onErr(errf("CTS advertises %d rails, connection has %d", n, c.raw.NRails()))
		return
	}
	var cands []int
	for k := 0; k < n; k++ {
		if h.rkeys[k] != 0 && c.raw.RailAlive(k) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		c.onErr(errf("rendezvous send: no surviving advertised rail"))
		return
	}
	st := &stripeSend{
		onDone: rs.onDone, payload: rs.payload,
		raddr: h.raddr, rkeys: h.rkeys,
		mrs: make([]*ib.MR, c.raw.NRails()),
	}
	for _, k := range cands {
		mr, _, err := c.raw.RailRegCache(k).Register(p, rs.payload.Addr, rs.payload.Len)
		if err != nil {
			c.onErr(errf("rendezvous source register: %w", err))
			return
		}
		st.mrs[k] = mr
	}
	unit := c.raw.StripeUnit()
	if len(cands) == 1 || c.raw.StripeCount(rs.payload.Len) == 1 {
		unit = rs.payload.Len
	}
	for off, i := 0, 0; off < rs.payload.Len; off, i = off+unit, i+1 {
		blk := rs.payload.Len - off
		if blk > unit {
			blk = unit
		}
		st.parts = append(st.parts, stripePart{off: off, blk: blk, rail: cands[i%len(cands)]})
		c.postStripe(p, h.reqID, st, i)
	}
	c.stripes[h.reqID] = st
}

// postStripe posts (or re-posts) stripe idx of a resilient rendezvous send
// on the rail its part currently names.
func (c *Conn) postStripe(p *des.Proc, reqID uint64, st *stripeSend, idx int) {
	pt := st.parts[idx]
	c.raw.RailQP(pt.rail).PostSend(p, ib.SendWR{
		WRID: wridStripeMark | uint64(idx)<<32 | (reqID & 0xFFFFFFFF),
		Op:   ib.OpRDMAWrite, Signaled: true,
		SGL: []ib.SGE{{
			Addr: st.payload.Addr + uint64(pt.off), Len: pt.blk,
			LKey: st.mrs[pt.rail].LKey(),
		}},
		RemoteAddr: st.raddr + uint64(pt.off),
		RKey:       st.rkeys[pt.rail],
	})
	st.pending++
}

// handleStripeCQE drains the striping completion counter: when the last
// stripe of a rendezvous payload is acked, release the per-rail
// registrations and queue the FIN.
func (c *Conn) handleStripeCQE(p *des.Proc, cqe ib.CQE) {
	if cqe.WRID&wridStripeMask != wridStripeMark {
		c.onErr(errf("unexpected completion, wr %#x status %v", cqe.WRID, cqe.Status))
		return
	}
	reqID := cqe.WRID &^ wridStripeMask
	if c.resilient() {
		reqID = cqe.WRID & 0xFFFFFFFF
	}
	st, ok := c.stripes[reqID]
	if !ok {
		c.onErr(errf("stripe completion for unknown rendezvous %d", reqID))
		return
	}
	if cqe.Status != ib.StatusSuccess {
		if !c.resilient() {
			c.onErr(errf("stripe write failed: %v", cqe.Status))
			return
		}
		// The stripe definitively did not land (an error completion rules
		// delivery out): evict its rail and re-write the block over a
		// surviving advertised rail.
		idx := int((cqe.WRID & wridStripeIdxMask) >> 32)
		pt := &st.parts[idx]
		c.raw.EvictRail(pt.rail)
		next := -1
		for k := 0; k < c.raw.NRails(); k++ {
			if st.rkeys[k] != 0 && st.mrs[k] != nil && c.raw.RailAlive(k) {
				next = k
				break
			}
		}
		if next < 0 {
			c.onErr(errf("no surviving rail for rendezvous stripe %d", idx))
			return
		}
		pt.rail = next
		st.pending-- // the failed write is off the wire; postStripe re-adds it
		c.postStripe(p, reqID, st, idx)
		return
	}
	st.pending--
	if st.pending > 0 {
		return
	}
	delete(c.stripes, reqID)
	for k, mr := range st.mrs {
		if mr == nil {
			continue
		}
		if err := c.raw.RailRegCache(k).Release(p, mr); err != nil {
			c.onErr(errf("rendezvous source release: %w", err))
			return
		}
	}
	fin := c.newHdrOp(header{kind: pktFIN, reqID: reqID}, nil, st.onDone)
	c.ctrlq.Put(fin)
	c.kick = true
}

// handleFIN completes a rendezvous receive: the payload is already in the
// user buffer (it preceded the FIN on the wire — by RC ordering on one
// rail, by counted completions across rails).
func (c *Conn) handleFIN(p *des.Proc, h header) {
	rr, ok := c.recvRndv[h.reqID]
	if !ok {
		c.onErr(errf("FIN for unknown rendezvous %d", h.reqID))
		return
	}
	delete(c.recvRndv, h.reqID)
	for k, mr := range rr.mrs {
		if mr == nil {
			continue
		}
		if err := c.raw.RailRegCache(k).Release(p, mr); err != nil {
			c.onErr(errf("rendezvous dest release: %w", err))
			return
		}
	}
	if rr.done != nil {
		rr.done(p)
	}
}

// Pending reports queued-but-incomplete send operations (diagnostics).
func (c *Conn) Pending() int {
	n := c.ctrlq.Len() + c.dataq.Len() + len(c.sendRndv) + len(c.stripes)
	if c.active != nil {
		n++
	}
	return n
}

// Poll implements transport.Endpoint: advance the head send operation and
// drain the receive pipe.
func (c *Conn) Poll(p *des.Proc) bool {
	prog, ok := c.pollSend(p)
	if !ok {
		return prog
	}
	return c.pollRecv(p, prog, false)
}

// IdlePoll implements transport's idle-poll hook: with nothing to send, no
// stranded FIN to report and the receive side between packets, a Poll is
// exactly one Get on the channel endpoint — so when that Get would be idle
// too (rdmachan.IdleGetter), the whole Poll is its entry charge.
func (c *Conn) IdlePoll() (des.Step, bool) {
	if c.idle == nil || c.active != nil || c.ctrlq.Len() > 0 || c.dataq.Len() > 0 ||
		c.rstate != 0 || c.kick {
		return des.Step{}, false
	}
	return c.idle.IdleGet()
}

// PollCharged finishes a Poll for which IdlePoll held and whose charge the
// caller has slept. With look unset nothing can have changed since, and the
// poll is only counted; otherwise the receive side runs from just after
// the charge (the send side still has nothing to do — only this
// connection's own process feeds it).
func (c *Conn) PollCharged(p *des.Proc, look bool) bool {
	if !look {
		c.idle.SkipGet()
		return false
	}
	return c.pollRecv(p, false, true)
}

// pollSend advances the send side; ok is false after a transport error.
func (c *Conn) pollSend(p *des.Proc) (prog, ok bool) {
	// Control packets win at message boundaries.
	for {
		if c.active == nil {
			var ok bool
			if c.active, ok = c.ctrlq.TryGet(); !ok {
				if c.active, ok = c.dataq.TryGet(); !ok {
					break
				}
			}
		}
		n, err := c.ep.Put(p, c.active.rem)
		if err != nil {
			c.onErr(errf("send: %w", err))
			return prog, false
		}
		if n == 0 {
			break
		}
		prog = true
		c.active.rem = rdmachan.Advance(c.active.rem, n)
		if len(c.active.rem) > 0 {
			break
		}
		done := c.active.onDone
		c.hdrPool = append(c.hdrPool, c.active.hdr)
		c.active = nil
		if done != nil {
			done(p)
		}
	}
	return prog, true
}

// pollRecv drains the receive pipe. prog is the progress made so far this
// pass; charged marks the first header Get as already paid for
// (PollCharged).
func (c *Conn) pollRecv(p *des.Proc, prog, charged bool) bool {
	for {
		switch c.rstate {
		case 0: // header
			var n int
			var err error
			if charged {
				n, err = c.idle.GetCharged(p, c.rhdrRem)
				charged = false
			} else {
				n, err = c.ep.Get(p, c.rhdrRem)
			}
			if err != nil {
				c.onErr(errf("recv header: %w", err))
				return prog
			}
			if n == 0 {
				// A stripe completion may have queued a FIN during this
				// Get's CQ drain — after this pass's send phase already ran.
				// Report progress so the engine polls again instead of
				// sleeping on a control packet no future event would flush.
				if c.kick {
					c.kick = false
					prog = true
				}
				return prog
			}
			prog = true
			c.rhdrRem = rdmachan.Advance(c.rhdrRem, n)
			if len(c.rhdrRem) > 0 {
				continue
			}
			h := decodeHeader(c.rhdrMem)
			c.rhdrRem = []transport.Buffer{c.rhdrBuf}
			if c.threshold == 0 && h.kind != pktEager {
				c.onErr(errf("unexpected packet kind %d on channel pipe", h.kind))
				return prog
			}
			switch h.kind {
			case pktEager:
				sink := c.h.ArriveEager(p, h.env)
				if h.env.Len == 0 {
					if sink.Done != nil {
						sink.Done(p)
					}
					continue
				}
				c.rsink = sink
				c.rpayload = []transport.Buffer{{Addr: sink.Buf.Addr, Len: h.env.Len}}
				c.rstate = 1
			case pktRTS:
				c.h.ArriveRTS(p, h.env, c, h.reqID)
			case pktCTS:
				c.handleCTS(p, h)
			case pktFIN:
				c.handleFIN(p, h)
			default:
				c.onErr(errf("bad packet kind %d", h.kind))
				return prog
			}
		case 1: // payload
			n, err := c.ep.Get(p, c.rpayload)
			if err != nil {
				c.onErr(errf("recv payload: %w", err))
				return prog
			}
			if n == 0 {
				if c.kick {
					c.kick = false
					prog = true
				}
				return prog
			}
			prog = true
			c.rpayload = rdmachan.Advance(c.rpayload, n)
			if len(c.rpayload) > 0 {
				continue
			}
			done := c.rsink.Done
			c.rsink = transport.Sink{}
			c.rstate = 0
			if done != nil {
				done(p)
			}
		}
	}
}
