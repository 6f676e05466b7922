package transport

import (
	"repro/internal/des"
	"repro/internal/rdmachan"
)

// Buffer names a span of a node's simulated address space (the channel
// layer's descriptor, reused unchanged up the stack).
type Buffer = rdmachan.Buffer

// Footprint is the channel layer's per-component memory accounting,
// reused unchanged up the stack (see rdmachan.Footprint).
type Footprint = rdmachan.Footprint

// Envelope is the MPI matching tuple plus payload size. Ctx carries the
// communicator context id: the MPI layer assigns every communicator its
// own p2p+collective pair (world owns 0/1; derived communicators allocate
// upward), and the engine matches on it before source and tag, so traffic
// on sibling communicators — same peers, same tags — can never
// cross-match, wildcards included.
type Envelope struct {
	Src int32 // sending rank
	Tag int32
	Ctx int32 // communicator context id
	Len int   // payload bytes
}

// Sink tells an endpoint where an incoming eager payload lands and what to
// call when it has fully arrived.
type Sink struct {
	Buf  Buffer
	Done func(p *des.Proc)
}

// Handler is the engine-side logic an endpoint delivers arrivals to.
type Handler interface {
	// ArriveEager resolves the destination for an eager payload: a matched
	// user buffer or a freshly allocated unexpected buffer.
	ArriveEager(p *des.Proc, env Envelope) Sink

	// ArriveRTS announces a rendezvous send. ep is the endpoint the RTS
	// arrived on; the handler must answer on that same endpoint — with a
	// wildcard receive the matching engine cannot reconstruct it from the
	// posted source rank. If a matching receive is posted the handler calls
	// ep.AcceptRendezvous immediately; otherwise it records the
	// announcement and accepts later.
	ArriveRTS(p *des.Proc, env Envelope, ep Endpoint, id uint64)
}

// Endpoint is one rank's connection to one peer, behind any transport.
type Endpoint interface {
	// SendEager moves one message eagerly; onDone runs when the local send
	// buffer is reusable.
	SendEager(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc))

	// SendRendezvous announces one large message (RTS). The payload moves
	// only after the peer's engine calls AcceptRendezvous; onDone runs when
	// the local buffer is reusable. Only called for payloads at or above
	// RendezvousThreshold.
	SendRendezvous(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc))

	// AcceptRendezvous answers a previously announced RTS (by its id): dst
	// is the now-posted receive buffer; done runs when the payload has
	// fully arrived in it.
	AcceptRendezvous(p *des.Proc, id uint64, dst Buffer, done func(p *des.Proc))

	// RendezvousThreshold is the payload size at and above which the engine
	// must use SendRendezvous. Zero means the transport never takes
	// engine-level rendezvous (large messages are the endpoint's own
	// business, as in the RDMA Channel designs' hidden zero-copy path).
	RendezvousThreshold() int

	// Poll advances the endpoint's send and receive state machines one
	// pass, reporting whether anything moved. The engine calls it on every
	// progress pass, unless the endpoint's slot holds an idle answer
	// (DESIGN.md §18).
	Poll(p *des.Proc) bool

	// IdlePoll reports whether a Poll issued now would pay exactly the
	// returned charge and find nothing (DESIGN.md §18). The answer is free —
	// a zero step: the Poll would sleep nothing and change nothing
	// (shmchan.Conn, a non-resilient ch3.SRQConn) — or charged: the Poll
	// would pay the step and find nothing (ch3.Conn over a chunk ring, whose
	// every Get is charged before it looks), and then the endpoint also has
	// PollCharged. An endpoint that cannot tell answers busy. An idle answer
	// holds until the endpoint calls touch, and the engine keeps it that
	// long.
	IdlePoll() (des.Step, bool)

	// WatchIdle is called when the engine activates the endpoint, with its
	// slot's touch function. The endpoint calls touch in every dispatch that
	// changes what IdlePoll reads: another process's write or completion,
	// before that dispatch notifies the rank's watch, or its own process
	// handing it work it returns to the engine with.
	WatchIdle(touch func())

	// Footprint reports the endpoint's dedicated memory; the cluster
	// aggregates footprints into per-process MemStats.
	Footprint() Footprint
}
