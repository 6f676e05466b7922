package ch3

import (
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// engine is the CH3 protocol state machine, the only one in this package
// (see the package comment). Conn and SRQConn embed it and are its two
// carriers; its exported methods are their transport.Endpoint.
type engine struct {
	car    carrier
	rails  railSet            // where rendezvous payloads move; nil in over-channel mode
	nRails int                // its size
	self   transport.Endpoint // the embedding connection, named in ArriveRTS
	h      transport.Handler
	onErr  func(error)

	// messages: the carrier sends each packet whole, as one work request with
	// its own completion, on the queue pair rendezvous writes also use;
	// otherwise it is a byte pipe. With resilient (fault-survival mode) it
	// means the connection recovers by re-dialing.
	messages  bool
	resilient bool

	threshold int // rendezvous switch; 0 = over-channel mode
	reqSeq    uint64

	// Send side: strict FIFO per queue; control packets (CTS, FIN) win at
	// packet boundaries. Eager and RTS packets share dataq, preserving MPI
	// envelope order. active is the packet a byte pipe holds part of; free
	// the records of packets that are gone, for the next put.
	ctrlq, dataq des.Queue[*packet]
	active       *packet
	free         []*packet

	// Rendezvous state, allocated on first use: announced sends awaiting
	// their CTS and accepted receives awaiting their FIN, by request id. The
	// payload writes in flight are the mover's.
	sendRndv map[uint64]*rndvSend
	recvRndv map[uint64]*rndvRecv
	mover    rdmachan.Mover

	stats Stats
}

// carrier moves the engine's packets: Conn or SRQConn.
type carrier interface {
	// admit prepares a packet record as it is queued.
	admit(pk *packet)

	// push offers the head packet. done: the carrier has all of it; moved:
	// it took some. A message carrier takes a packet whole or not at all; a
	// pipe may take part, and then owns the packet until it has the rest.
	push(p *des.Proc, pk *packet) (done, moved bool, err error)

	// pump advances the send side after an endpoint call queued a packet.
	pump(p *des.Proc)

	// nudge says a completion or an arriving packet — something running
	// inside the carrier's own poll — queued a FIN or finished a send.
	nudge(p *des.Proc)
}

// railSet is what the payload move needs of the connection's rails;
// rdmachan.RawAccess provides it for a chunk-ring connection.
type railSet interface {
	rdmachan.StripeRails
	RailRegCache(k int) *regcache.Cache
	StripeUnit() int
	StripeCount(size int) int
}

// Stats counts packet-engine activity.
type Stats struct {
	EagerSends uint64
	RndvSends  uint64
	RndvRecvs  uint64
}

// packet is one queued outbound packet. onDone runs when the carrier has it
// (the payload buffer is reusable), onSent at the carrier's last event for
// it: its completion, or on a pipe its acceptance.
type packet struct {
	hdr            header
	payload        transport.Buffer // eager payload; zero-length for control
	onDone, onSent func(p *des.Proc)

	// Byte pipe: the pooled 64-byte staging slot holding the encoded header,
	// and what the pipe has not taken yet.
	slot hdrSlot
	bufs [2]transport.Buffer
	rem  []transport.Buffer

	// Re-dialing carrier: the assembled packet bytes, retained for resend
	// until acknowledged (the user buffer is reusable once onDone ran, so
	// resends use this copy); rekey marks a CTS whose advertisement is
	// registered when the packet is built, on the pool current then.
	pkt   []byte
	rekey bool
}

// rndvSend is one rendezvous send: in sendRndv until the CTS, then the
// owner of its payload move (rdmachan.MoveOwner).
type rndvSend struct {
	e       *engine
	id      uint64
	payload transport.Buffer
	onDone  func(p *des.Proc)
	env     transport.Envelope  // retained for re-announcement after a re-dial
	mrs     [maxHdrRails]*ib.MR // by rail, made before the move; nil = not registered
}

// rndvRecv is one accepted rendezvous receive awaiting its FIN.
type rndvRecv struct {
	dst   transport.Buffer
	done  func(p *des.Proc)
	keyed bool
	mrs   [maxHdrRails]*ib.MR // by rail; nil = rail not advertised
}

func (e *engine) redials() bool { return e.messages && e.resilient }

// finLast reports whether a FIN must wait for the last counted write: always,
// except on a one-rail pipe.
func (e *engine) finLast() bool { return e.nRails > 1 || e.redials() }

// Stats returns packet-engine counters.
func (e *engine) Stats() Stats { return e.stats }

// RendezvousThreshold implements transport.Endpoint.
func (e *engine) RendezvousThreshold() int { return e.threshold }

// Pending reports queued-but-incomplete send operations (diagnostics).
func (e *engine) Pending() int {
	n := e.ctrlq.Len() + e.dataq.Len() + len(e.sendRndv) + e.mover.InFlight()
	if e.active != nil {
		n++
	}
	return n
}

// put queues pk on q in a recycled packet record when there is one.
func (e *engine) put(q *des.Queue[*packet], pk packet) {
	var rec *packet
	if n := len(e.free); n > 0 {
		rec, e.free = e.free[n-1], e.free[:n-1]
	} else {
		rec = new(packet)
	}
	*rec = pk
	e.car.admit(rec)
	q.Put(rec)
}

// drain offers queued packets to the carrier until it refuses one, control
// packets first. ok is false after a transport error.
func (e *engine) drain(p *des.Proc) (prog, ok bool) {
	for {
		pk, q := e.active, (*des.Queue[*packet])(nil)
		if pk == nil {
			q = &e.ctrlq
			if pk, ok = q.Peek(); !ok {
				q = &e.dataq
				if pk, ok = q.Peek(); !ok {
					return prog, true
				}
			}
		}
		done, moved, err := e.car.push(p, pk)
		if err != nil {
			e.onErr(errf("send: %w", err))
			return prog, false
		}
		prog = prog || moved
		if q != nil && (done || !e.messages) {
			q.TryGet() // a pipe owns the packet from its first offer
		}
		if !done {
			if !e.messages {
				e.active = pk
			}
			return prog, true
		}
		e.active = nil
		onDone, onSent := pk.onDone, pk.onSent
		pk.onDone = nil
		if !e.redials() { // a re-dialing carrier keeps the record until the packet's ack
			e.free = append(e.free, pk)
		}
		if onDone != nil {
			onDone(p)
		}
		if onSent != nil && !e.messages {
			onSent(p) // acceptance is a pipe's last event for the packet
		}
	}
}

// SendEager implements transport.Endpoint. onDone runs once the carrier has
// the payload (the local buffer is then reusable).
func (e *engine) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	e.stats.EagerSends++
	e.put(&e.dataq, packet{hdr: header{kind: pktEager, env: env}, payload: payload, onDone: onDone})
	e.car.pump(p)
}

// SendRendezvous implements transport.Endpoint: announce with RTS; the
// payload moves by RDMA write after the peer's CTS.
func (e *engine) SendRendezvous(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	if e.threshold == 0 {
		panic("ch3: SendRendezvous in over-channel mode")
	}
	e.stats.RndvSends++
	e.reqSeq++
	id := e.reqSeq
	if e.sendRndv == nil {
		e.sendRndv = make(map[uint64]*rndvSend)
	}
	e.sendRndv[id] = &rndvSend{e: e, id: id, payload: payload, onDone: onDone, env: env}
	e.put(&e.dataq, packet{hdr: header{kind: pktRTS, env: env, reqID: id}})
	e.car.pump(p)
}

// AcceptRendezvous implements transport.Endpoint: the receive matching an
// announced RTS is now posted; advertise its buffer with a CTS. A
// connection that recovers by re-dialing registers the buffer only when the
// CTS packet is built (rekey): if it moves to another rail first, the
// registration is made on the pool that is current then.
func (e *engine) AcceptRendezvous(p *des.Proc, reqID uint64, dst transport.Buffer,
	done func(p *des.Proc)) {
	if e.threshold == 0 {
		panic("ch3: AcceptRendezvous in over-channel mode")
	}
	rr := &rndvRecv{dst: dst, done: done}
	cts := packet{hdr: header{kind: pktCTS, reqID: reqID}, rekey: e.redials()}
	if !cts.rekey {
		if err := e.advertise(p, rr, &cts.hdr); err != nil {
			e.onErr(err)
			return
		}
	}
	if e.recvRndv == nil {
		e.recvRndv = make(map[uint64]*rndvRecv)
	}
	e.recvRndv[reqID] = rr
	e.stats.RndvRecvs++
	e.put(&e.ctrlq, cts)
	e.car.pump(p)
}

// advertise registers rr's buffer through the pin-down cache of every rail
// the sender may write over — each adapter validates its own keys — unless
// it still is, and fills the CTS header with one rkey per rail. The
// receiver decides the stripe count: the connection's striping threshold
// is honoured here, so small payloads stay on rail 0. A resilient
// connection instead advertises every surviving rail (key 0 = rail dead)
// and registers the buffer in full on each, so the sender may move any
// stripe to any advertised rail if its first choice fails mid-transfer.
func (e *engine) advertise(p *des.Proc, rr *rndvRecv, h *header) error {
	n := e.nRails
	if !e.resilient {
		n = e.rails.StripeCount(rr.dst.Len)
	}
	if !rr.keyed {
		for k := 0; k < n; k++ {
			if e.resilient && !e.rails.RailAlive(k) {
				continue
			}
			mr, _, err := e.rails.RailRegCache(k).Register(p, rr.dst.Addr, rr.dst.Len)
			if err != nil {
				return errf("rendezvous register: %w", err)
			}
			rr.mrs[k], rr.keyed = mr, true
		}
		if !rr.keyed {
			return errf("rendezvous accept: no surviving rail")
		}
	}
	h.raddr, h.nRails = rr.dst.Addr, byte(n)
	for k, mr := range rr.mrs {
		if mr != nil {
			h.rkeys[k] = mr.RKey()
		}
	}
	return nil
}

// decode parses and validates the header src starts with; a bad one is
// reported through onErr and must not be dispatched.
func (e *engine) decode(src []byte, avail int) (h header, ok bool) {
	if len(src) < hdrSize {
		e.onErr(errf("short packet: %d bytes", len(src)))
		return h, false
	}
	h = decodeHeader(src)
	if err := h.check(e.threshold, e.nRails, avail); err != nil {
		e.onErr(err)
		return h, false
	}
	return h, true
}

// dispatch acts on a validated header. For an eager packet it returns the
// sink the carrier delivers the payload into (and whose Done it then
// calls); every other kind is finished when it returns.
func (e *engine) dispatch(p *des.Proc, h header) (sink transport.Sink, eager bool) {
	switch h.kind {
	case pktEager:
		return e.h.ArriveEager(p, h.env), true
	case pktRTS:
		e.h.ArriveRTS(p, h.env, e.self, h.reqID)
	case pktCTS:
		e.handleCTS(p, h)
	case pktFIN:
		e.handleFIN(p, h)
	}
	return transport.Sink{}, false
}

// handleCTS starts the payload move the CTS clears.
func (e *engine) handleCTS(p *des.Proc, h header) {
	rs, ok := e.sendRndv[h.reqID]
	if !ok {
		if e.redials() {
			// A stale duplicate: the transfer is already past the CTS (its
			// write is in flight or done) under an earlier answer.
			return
		}
		e.onErr(errf("CTS for unknown rendezvous %d", h.reqID))
		return
	}
	delete(e.sendRndv, h.reqID)
	e.write(p, h, rs)
}

// write moves a rendezvous payload into the buffer a CTS advertised and
// sees to its FIN (DESIGN.md §10 tabulates it by carrier, rails and
// resilience): the candidates are the advertised rails — resilient, those
// still alive — the payload is registered on each, and the mover stripes it
// over them in StripeUnit blocks, or as one write on one candidate (or,
// resilient, below the striping threshold).
//
// A message carrier's FIN has a completion of its own and follows the write
// on its queue pair, so there the write goes unsignaled and the FIN's
// completion ends the send. Elsewhere the writes are counted — a requester
// completion means acked end-to-end, the only ordering across rails — and
// the FIN waits for the last (MoveDone): it must not ride a pipe that
// rail-picks its chunks, and a re-dialing connection must know the write
// landed before saying so. On a one-rail pipe RC ordering keeps a FIN
// queued at once behind the write, whose completion ends the send.
func (e *engine) write(p *des.Proc, h header, rs *rndvSend) {
	var buf [maxHdrRails]int
	cands := buf[:0]
	for k := 0; k < max(int(h.nRails), 1); k++ {
		if !e.resilient || (h.rkeys[k] != 0 && e.rails.RailAlive(k)) {
			cands = append(cands, k)
		}
	}
	if len(cands) == 0 {
		e.onErr(errf("rendezvous send: no surviving advertised rail"))
		return
	}
	for _, k := range cands {
		mr, _, err := e.rails.RailRegCache(k).Register(p, rs.payload.Addr, rs.payload.Len)
		if err != nil {
			e.onErr(errf("rendezvous source register: %w", err))
			return
		}
		rs.mrs[k] = mr
	}
	unit := rs.payload.Len
	if len(cands) > 1 && !(e.resilient && e.rails.StripeCount(unit) == 1) {
		unit = e.rails.StripeUnit()
	}
	counted := !e.messages || e.resilient
	if err := e.mover.Post(p, &rdmachan.Move{
		Op: ib.OpRDMAWrite, Local: rs.payload.Addr, Remote: h.raddr, Size: rs.payload.Len,
		Keys: h.rkeys, Rails: cands, Unit: unit, Counted: counted, Owner: rs,
	}); err != nil {
		e.onErr(errf("rendezvous write: %w", err))
		return
	}
	fin := packet{hdr: header{kind: pktFIN, reqID: rs.id}}
	switch {
	case !counted:
		if !e.release(p, &rs.mrs, "source") { // the registration stays cached
			return
		}
		fin.onSent = rs.onDone
	case e.finLast():
		return
	}
	e.put(&e.ctrlq, fin)
	e.car.nudge(p)
}

// StripeLKey implements rdmachan.MoveOwner: the payload was registered on
// every candidate rail before the move was posted.
func (rs *rndvSend) StripeLKey(_ *des.Proc, k int, _ uint64, _ int) (uint32, error) {
	return rs.mrs[k].LKey(), nil
}

// MoveDone implements rdmachan.MoveOwner: the last counted write landed, or
// one failed with no surviving rail — which a re-dialing connection answers
// by restoring the announcement, to start over from the RTS on the new queue
// pair. Success releases the registrations and sends the FIN, or — the FIN
// already out — completes the send.
func (rs *rndvSend) MoveDone(p *des.Proc, err error) {
	e := rs.e
	if err != nil {
		if !e.redials() {
			e.onErr(errf("rendezvous %d: %w", rs.id, err))
			return
		}
		e.sendRndv[rs.id] = rs
	}
	if !e.release(p, &rs.mrs, "source") || err != nil {
		return
	}
	if e.finLast() {
		e.put(&e.ctrlq, packet{hdr: header{kind: pktFIN, reqID: rs.id}, onSent: rs.onDone})
	} else if rs.onDone != nil {
		rs.onDone(p)
	}
	e.car.nudge(p)
}

// release drops a rendezvous buffer's per-rail registrations (they stay
// cached).
func (e *engine) release(p *des.Proc, mrs *[maxHdrRails]*ib.MR, what string) bool {
	for k, mr := range mrs {
		if mr == nil {
			continue
		}
		mrs[k] = nil
		if err := e.rails.RailRegCache(k).Release(p, mr); err != nil {
			e.onErr(errf("rendezvous %s release: %w", what, err))
			return false
		}
	}
	return true
}

// handleFIN completes a rendezvous receive: the payload is already in the
// user buffer (it preceded the FIN on the wire — by RC ordering on one
// queue pair, by counted completions across rails).
func (e *engine) handleFIN(p *des.Proc, h header) {
	rr, ok := e.recvRndv[h.reqID]
	if !ok {
		e.onErr(errf("FIN for unknown rendezvous %d", h.reqID))
		return
	}
	delete(e.recvRndv, h.reqID)
	if e.release(p, &rr.mrs, "dest") && rr.done != nil {
		rr.done(p)
	}
}
