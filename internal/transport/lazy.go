package transport

import (
	"slices"

	"repro/internal/des"
)

// dial is a connection being established (DESIGN.md §9): the engine's
// record of a peer it has sent to before any endpoint existed. The first
// send to the peer opens the dial, which starts simulated connection
// establishment — queue-pair creation and the address-exchange handshake,
// run as DES events by the cluster's connection manager — and queues
// itself. When the connection manager delivers the real endpoint
// (Engine.Fulfill), the owning process's next progress pass installs it:
// queued sends flush in posted order, on the owner's own process, through
// the normal protocol selection. Deferring the flush to the owner
// preserves the stack's single-driver invariant — exactly one process ever
// drives an endpoint's send state machine — which the connection manager
// would otherwise break by interleaving with an in-flight poll.
//
// Receives never open a dial: matching is the engine's, and a posted
// receive — AnySource included — simply waits for traffic from peers that
// chose to connect. A process therefore never pays for connections its
// communication pattern doesn't use.
type dial struct {
	peer    int32
	ep      Endpoint // established endpoint, delivered by Fulfill
	pending []pendingSend
}

// pendingSend is a message posted while the connection handshake is in
// flight.
type pendingSend struct {
	env Envelope
	buf Buffer
	req *Request
}

// SetDialer installs the lazy connection starter: the first send toward a
// rank with no endpoint opens a dial and invokes it.
func (e *Engine) SetDialer(dial func(p *des.Proc, peer int32)) { e.dialer = dial }

// dialTo returns the open dial to peer, or nil.
func (e *Engine) dialTo(peer int32) *dial {
	for _, d := range e.dials {
		if d.peer == peer {
			return d
		}
	}
	return nil
}

// open returns the dial to peer, opening it — and starting establishment
// on the calling process — if there is none.
func (e *Engine) open(p *des.Proc, peer int32) *dial {
	if d := e.dialTo(peer); d != nil {
		return d
	}
	d := &dial{peer: peer}
	e.dials = append(e.dials, d)
	e.dialer(p, peer)
	return d
}

// Fulfill delivers the established endpoint for peer. With no dial open
// (eager wiring, or a re-dial of a connection in use) the endpoint installs
// directly; an open dial records it — the owning process's next progress
// pass installs it and flushes the sends queued during the handshake, in
// posted order, on the owner's own process (see dial for why the
// connection manager must not flush them itself). Notifying the rank's
// watch ensures its progress loop, blocked on it, notices the new endpoint.
func (e *Engine) Fulfill(peer int32, ep Endpoint) {
	if d := e.dialTo(peer); d == nil {
		e.activate(peer, ep)
	} else {
		if d.ep == nil {
			e.ready.Put(d)
		}
		d.ep = ep
	}
	e.watch.Notify()
}

// promote installs the endpoints fulfilled dials hold, in the order they
// were fulfilled, and flushes the sends queued on them, on the owning
// process. It runs at the top of every progress pass.
func (e *Engine) promote(p *des.Proc) bool {
	prog := false
	for d, ok := e.ready.TryGet(); ok; d, ok = e.ready.TryGet() {
		e.dials = slices.DeleteFunc(e.dials, func(o *dial) bool { return o == d })
		e.activate(d.peer, d.ep)
		for _, ps := range d.pending {
			e.dispatchSend(p, d.ep, ps.env, ps.buf, ps.req)
			prog = true
		}
	}
	return prog
}

// Connected reports whether an established endpoint to peer exists
// (a fulfilled dial counts: its connection is up).
func (e *Engine) Connected(peer int32) bool {
	d := e.dialTo(peer)
	return e.Endpoint(peer) != nil || d != nil && d.ep != nil
}

// EnsureConnected establishes the connection to peer without sending a
// message: it opens the dial if needed and drives progress until the
// endpoint is installed. Callers that need verbs-level resources up front
// (one-sided window creation) use it; ordinary sends connect implicitly.
func (e *Engine) EnsureConnected(p *des.Proc, peer int32) {
	if peer == e.rank || e.dialer == nil || e.Endpoint(peer) != nil {
		return
	}
	e.open(p, peer)
	for !e.Connected(peer) {
		e.Progress(p, true)
	}
	e.woke = false
	e.promote(p)
}
