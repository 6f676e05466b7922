package transport

import "repro/internal/des"

// Stub is a lazy connector: the endpoint slot's occupant before any
// connection to that peer exists (DESIGN.md §9). The first send to the
// peer starts simulated connection establishment — queue-pair creation and
// the address-exchange handshake, run as DES events by the cluster's
// connection manager — and queues itself. When the connection manager
// fulfills the stub with the real endpoint (Engine.Fulfill), the owning
// process's next progress pass promotes it: queued sends flush in posted
// order, on the owner's own process, through the normal protocol
// selection. Deferring the flush to the owner preserves the stack's
// single-driver invariant — exactly one process ever drives an endpoint's
// send state machine — which the connection manager would otherwise break
// by interleaving with an in-flight poll.
//
// Receives never touch a stub: matching is the engine's, and a posted
// receive — AnySource included — simply waits for traffic from peers that
// chose to connect. A process therefore never pays for connections its
// communication pattern doesn't use.
type Stub struct {
	peer    int32
	dial    func(p *des.Proc)
	dialing bool
	inner   Endpoint // established endpoint, installed by Fulfill
	pending []pendingSend
}

// pendingSend is a message posted while the connection handshake is in
// flight.
type pendingSend struct {
	env Envelope
	buf Buffer
	req *Request
}

// NewStub builds a connector stub for peer; dial starts establishment and
// is called at most once, on the process that posts the first send.
func NewStub(peer int32, dial func(p *des.Proc)) *Stub {
	return &Stub{peer: peer, dial: dial}
}

// kick starts establishment if it has not started yet.
func (s *Stub) kick(p *des.Proc) {
	if s.dialing {
		return
	}
	s.dialing = true
	s.dial(p)
}

// The Endpoint methods below exist so Engine.Endpoint can hand a stub to
// callers that only inspect it. The engine routes sends around stubs
// (queueing them until fulfillment), so payload-moving calls on a stub are
// protocol bugs.

// SendEager implements Endpoint; it must never be reached.
func (s *Stub) SendEager(*des.Proc, Envelope, Buffer, func(*des.Proc)) {
	panic("transport: SendEager on an unconnected stub")
}

// SendRendezvous implements Endpoint; it must never be reached.
func (s *Stub) SendRendezvous(*des.Proc, Envelope, Buffer, func(*des.Proc)) {
	panic("transport: SendRendezvous on an unconnected stub")
}

// AcceptRendezvous implements Endpoint; it must never be reached (an RTS
// can only arrive over an established endpoint).
func (s *Stub) AcceptRendezvous(*des.Proc, uint64, Buffer, func(*des.Proc)) {
	panic("transport: AcceptRendezvous on an unconnected stub")
}

// RendezvousThreshold implements Endpoint. The real threshold is known
// only after establishment; the engine re-selects the protocol when it
// flushes queued sends.
func (s *Stub) RendezvousThreshold() int { return 0 }

// Poll implements Endpoint: an unconnected peer has nothing to advance.
func (s *Stub) Poll(*des.Proc) bool { return false }
