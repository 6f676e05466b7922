package shmchan

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// Config tunes one intra-node connection.
type Config struct {
	// RndvThreshold is the payload size at and above which messages take
	// the single-copy rendezvous path instead of the two-copy segment.
	// 0 disables rendezvous (every large message copies through the
	// segment, the behaviour of the original channel).
	RndvThreshold int
}

// The channel's geometry, per direction: Cells ring cells carrying up to
// EagerMax payload bytes inline, larger messages streaming through
// SegChunks segment slots of SegChunk bytes — big enough to amortize
// per-chunk flag traffic, small enough that sender copy-in and receiver
// copy-out pipeline within one message. The pair's pin-down cache behind
// the rendezvous path holds regCacheBytes.
const (
	EagerMax      = 8 << 10
	Cells         = 16
	SegChunk      = 32 << 10
	SegChunks     = 8
	regCacheBytes = 64 << 20
)

// Stats counts one connection's send-side activity.
type Stats struct {
	EagerSends uint64
	LargeSends uint64
	RndvSends  uint64
	BytesSent  uint64
}

// Cell kinds carried through the eager ring.
const (
	cellEager byte = iota
	cellLarge      // announces a message streaming through the segment
	cellRTS        // announces a rendezvous message (payload stays put)
)

// cell is one eager ring entry: a descriptor plus inline payload storage.
// Large and RTS entries carry no payload; they announce a message that
// follows through the segment slots or a rendezvous handshake.
type cell struct {
	mem  []byte
	env  transport.Envelope
	kind byte
	id   uint64 // rendezvous id (cellRTS only)
	full bool
}

// segSlot is one large-path chunk slot.
type segSlot struct {
	mem  []byte
	n    int
	full bool
}

// dir is one direction of a connection: a cell ring and a chunk segment,
// both allocated in the node's simulated memory. The sending Conn is the
// only producer and the receiving Conn the only consumer.
type dir struct {
	cells      []cell
	head, tail int // consumer / producer cursors (monotonic counts)

	slots            []segSlot
	segHead, segTail int
}

func newDir(mem *model.Memory) *dir {
	d := &dir{
		cells: make([]cell, Cells),
		slots: make([]segSlot, SegChunks),
	}
	for i := range d.cells {
		_, d.cells[i].mem = mem.Alloc(EagerMax)
	}
	for i := range d.slots {
		_, d.slots[i].mem = mem.Alloc(SegChunk)
	}
	return d
}

func (d *dir) freeCell() *cell {
	if d.tail-d.head == len(d.cells) {
		return nil
	}
	return &d.cells[d.tail%len(d.cells)]
}

func (d *dir) fullCell() *cell {
	c := &d.cells[d.head%len(d.cells)]
	if d.tail == d.head || !c.full {
		return nil
	}
	return c
}

func (d *dir) freeSlot() *segSlot {
	if d.segTail-d.segHead == len(d.slots) {
		return nil
	}
	return &d.slots[d.segTail%len(d.slots)]
}

func (d *dir) fullSlot() *segSlot {
	s := &d.slots[d.segHead%len(d.slots)]
	if d.segTail == d.segHead || !s.full {
		return nil
	}
	return s
}

// sendOp is one queued message operation.
type sendOp struct {
	env       transport.Envelope
	payload   transport.Buffer
	onDone    func(p *des.Proc)
	rndv      bool // announce an RTS instead of moving the payload
	announced bool // large/rndv: ring descriptor enqueued
	off       int  // large: payload bytes copied into the segment
}

// rndvOp is an announced-but-unaccepted rendezvous send, keyed by id in
// the sender's pending map. The receiving side reads it through the peer
// pointer — the shared-memory analogue of the RTS carrying the source
// buffer's address.
type rndvOp struct {
	payload transport.Buffer
	onDone  func(p *des.Proc)
}

// Conn is one rank's endpoint of an intra-node connection. It implements
// transport.Endpoint; the cluster installs it for same-node rank pairs in
// place of an InfiniBand-backed connection.
type Conn struct {
	h    transport.Handler
	peer *Conn
	hca  *ib.HCA
	node *model.Node
	prm  *model.Params
	cfg  Config

	out *dir // direction this side produces into
	in  *dir // direction this side consumes from

	sendq   des.Queue[*sendOp]
	rndvSeq uint64
	pending map[uint64]*rndvOp // announced rendezvous sends by id

	// Large-message receive state: the message currently draining from the
	// segment into its sink.
	drain  bool
	rsink  transport.Sink
	rtotal int
	roff   int

	regc  *regcache.Cache // shared with the peer conn
	stats Stats
	touch func() // drops the idle answer the owner's transport holds (WatchIdle), or nil
}

// NewPair wires an intra-node connection between two ranks on the node of
// h and returns their endpoints (a talks to b). Both ranks must run on
// that node: the rings live in its memory and every copy crosses its bus.
// The pair shares one pin-down registration cache for the rendezvous path.
func NewPair(h *ib.HCA, cfg Config, a, b transport.Handler) (*Conn, *Conn) {
	node := h.Node()
	ab := newDir(node.Mem)
	ba := newDir(node.Mem)
	regc := regcache.New(h, h.AllocPD(), regCacheBytes)
	mk := func(hd transport.Handler, out, in *dir) *Conn {
		return &Conn{
			h: hd, hca: h, node: node, prm: h.Params(), cfg: cfg,
			out: out, in: in,
			pending: make(map[uint64]*rndvOp),
			regc:    regc,
		}
	}
	ca, cb := mk(a, ab, ba), mk(b, ba, ab)
	ca.peer, cb.peer = cb, ca
	return ca, cb
}

// Stats returns the send-side counters.
func (c *Conn) Stats() Stats { return c.stats }

// Footprint reports this side's dedicated memory: the cell ring and
// segment slots of the direction it produces into (shared memory, not
// pinned — intra-node traffic never touches the adapter).
func (c *Conn) Footprint() transport.Footprint {
	return transport.Footprint{
		EagerSlots: len(c.out.cells),
		EagerBytes: int64(len(c.out.cells)*EagerMax + len(c.out.slots)*SegChunk),
	}
}

// RegCache returns the pair's shared pin-down cache (for statistics).
func (c *Conn) RegCache() *regcache.Cache { return c.regc }

// RendezvousThreshold implements transport.Endpoint.
func (c *Conn) RendezvousThreshold() int { return c.cfg.RndvThreshold }

// notify runs on every change the peer can see — a cell or segment slot
// filled or freed, a rendezvous accepted. It touches the peer connection
// and wakes progress loops blocked on the node's memory events: the peer
// rank, and any other co-located rank that polls the same adapter.
func (c *Conn) notify() {
	if c.peer.touch != nil {
		c.peer.touch()
	}
	c.hca.NotifyMemWrite()
}

// IdlePoll implements transport's idle-poll hook: with nothing to send and
// nothing arrived, Poll returns false without sleeping or changing state, so
// the answer is free.
func (c *Conn) IdlePoll() (des.Step, bool) { return des.Step{}, !c.HoldsWork() }

// WatchIdle implements transport's idle-poll hook. Work arrives through the
// peer's notify, which touches this connection, or is left behind by its
// own Poll, which touches it on return.
func (c *Conn) WatchIdle(touch func()) { c.touch = touch }

// HoldsWork reports whether a Poll would find something to do: a queued
// send, an arrived cell, or a segment slot for the message draining.
func (c *Conn) HoldsWork() bool {
	return c.sendq.Len() > 0 || c.in.fullCell() != nil || c.drain && c.in.fullSlot() != nil
}

// SendEager implements transport.Endpoint. Despite the name, payloads
// above EagerMax still move — through the chunked segment path — because
// an over-threshold message only reaches here when rendezvous is disabled.
func (c *Conn) SendEager(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	c.sendq.Put(&sendOp{env: env, payload: payload, onDone: onDone})
	c.Poll(p)
}

// SendRendezvous implements transport.Endpoint: queue an RTS descriptor;
// the payload stays in the user buffer until the peer accepts.
func (c *Conn) SendRendezvous(p *des.Proc, env transport.Envelope, payload transport.Buffer,
	onDone func(p *des.Proc)) {
	if c.cfg.RndvThreshold == 0 {
		panic("shmchan: SendRendezvous with rendezvous disabled")
	}
	c.sendq.Put(&sendOp{env: env, payload: payload, onDone: onDone, rndv: true})
	c.Poll(p)
}

// AcceptRendezvous implements transport.Endpoint: the receive matching an
// announced RTS is now posted. Pin both user buffers through the shared
// registration cache and move the payload with one kernel-assisted copy —
// a single bus crossing, straight into the receiver's buffer.
func (c *Conn) AcceptRendezvous(p *des.Proc, id uint64, dst transport.Buffer,
	done func(p *des.Proc)) {
	rs, ok := c.peer.pending[id]
	if !ok {
		panic(fmt.Sprintf("shmchan: accept of unknown rendezvous %d", id))
	}
	delete(c.peer.pending, id)
	n := dst.Len
	p.Sleep(c.prm.ShmOverhead) // handshake bookkeeping
	srcMR, _, err := c.regc.Register(p, rs.payload.Addr, n)
	if err != nil {
		panic(fmt.Sprintf("shmchan: rendezvous source pin: %v", err))
	}
	dstMR, _, err := c.regc.Register(p, dst.Addr, n)
	if err != nil {
		panic(fmt.Sprintf("shmchan: rendezvous dest pin: %v", err))
	}
	if n > 0 {
		src := c.node.Mem.MustResolve(rs.payload.Addr, n)
		out := c.node.Mem.MustResolve(dst.Addr, n)
		copy(out, src)
		c.node.Bus.Memcpy(p, n, n)
	}
	if err := c.regc.Release(p, srcMR); err != nil {
		panic(fmt.Sprintf("shmchan: rendezvous source unpin: %v", err))
	}
	if err := c.regc.Release(p, dstMR); err != nil {
		panic(fmt.Sprintf("shmchan: rendezvous dest unpin: %v", err))
	}
	c.peer.stats.BytesSent += uint64(n)
	c.notify() // the sender may be blocked waiting for the FIN
	if done != nil {
		done(p)
	}
	if rs.onDone != nil {
		rs.onDone(p)
	}
}

// Pending reports queued-but-incomplete send operations (diagnostics).
func (c *Conn) Pending() int { return c.sendq.Len() + len(c.pending) }

// Poll implements transport.Endpoint: advance the head send operation and
// drain arrived messages, reporting whether anything moved. Work it leaves
// behind — a send waiting for the peer to free a cell — touches its slot.
func (c *Conn) Poll(p *des.Proc) bool {
	prog := c.progressSend(p)
	if c.progressRecv(p) {
		prog = true
	}
	if c.touch != nil && c.HoldsWork() {
		c.touch()
	}
	return prog
}

// progressSend pushes queued operations into the outbound ring/segment in
// strict FIFO order (MPI ordering between a rank pair).
func (c *Conn) progressSend(p *des.Proc) bool {
	prog := false
	for {
		op, ok := c.sendq.Peek()
		if !ok {
			break
		}
		if op.rndv {
			// Rendezvous: one RTS descriptor through the ring, then the
			// operation parks in the pending map until accepted.
			cl := c.out.freeCell()
			if cl == nil {
				break
			}
			p.Sleep(c.prm.ShmOverhead)
			c.rndvSeq++
			cl.env, cl.kind, cl.id, cl.full = op.env, cellRTS, c.rndvSeq, true
			c.out.tail++
			c.pending[c.rndvSeq] = &rndvOp{payload: op.payload, onDone: op.onDone}
			c.sendq.TryGet()
			c.stats.RndvSends++
			c.notify()
			prog = true
			continue
		}
		if op.env.Len <= EagerMax {
			cl := c.out.freeCell()
			if cl == nil {
				break
			}
			p.Sleep(c.prm.ShmOverhead)
			if n := op.env.Len; n > 0 {
				src := c.node.Mem.MustResolve(op.payload.Addr, n)
				copy(cl.mem, src)
				c.node.Bus.Memcpy(p, n, n)
			}
			cl.env, cl.kind, cl.full = op.env, cellEager, true
			c.out.tail++
			c.notify()
			c.completeHead(p, op)
			prog = true
			continue
		}

		// Large: announce through the ring, then stream chunks through the
		// segment. The copy working set is the whole message, so large
		// transfers run at the streaming (cache-miss) copy rate.
		if !op.announced {
			cl := c.out.freeCell()
			if cl == nil {
				break
			}
			p.Sleep(c.prm.ShmOverhead)
			cl.env, cl.kind, cl.full = op.env, cellLarge, true
			c.out.tail++
			op.announced = true
			c.notify()
			prog = true
		}
		for op.off < op.env.Len {
			sl := c.out.freeSlot()
			if sl == nil {
				break
			}
			n := min(SegChunk, op.env.Len-op.off)
			src := c.node.Mem.MustResolve(op.payload.Addr+uint64(op.off), n)
			copy(sl.mem[:n], src)
			c.node.Bus.Memcpy(p, n, op.env.Len)
			sl.n, sl.full = n, true
			c.out.segTail++
			op.off += n
			c.notify()
			prog = true
		}
		if op.off < op.env.Len {
			break // out of segment slots; retry when the receiver drains
		}
		c.completeHead(p, op)
	}
	return prog
}

func (c *Conn) completeHead(p *des.Proc, op *sendOp) {
	c.sendq.TryGet()
	if op.env.Len > EagerMax {
		c.stats.LargeSends++
	} else {
		c.stats.EagerSends++
	}
	c.stats.BytesSent += uint64(op.env.Len)
	if op.onDone != nil {
		op.onDone(p)
	}
}

// progressRecv consumes arrived ring entries in order; a large descriptor
// switches the connection into draining mode until its last chunk lands,
// an RTS descriptor is announced to the progress engine without moving
// any payload.
func (c *Conn) progressRecv(p *des.Proc) bool {
	prog := false
	for {
		if c.drain {
			sl := c.in.fullSlot()
			if sl == nil {
				return prog
			}
			dst := c.node.Mem.MustResolve(c.rsink.Buf.Addr+uint64(c.roff), sl.n)
			copy(dst, sl.mem[:sl.n])
			c.node.Bus.Memcpy(p, sl.n, c.rtotal)
			c.roff += sl.n
			sl.full = false
			c.in.segHead++
			c.notify() // a freed slot may unblock the sender
			prog = true
			if c.roff == c.rtotal {
				done := c.rsink.Done
				c.drain, c.rsink, c.rtotal, c.roff = false, transport.Sink{}, 0, 0
				if done != nil {
					done(p)
				}
			}
			continue
		}

		cl := c.in.fullCell()
		if cl == nil {
			return prog
		}
		env, kind, id := cl.env, cl.kind, cl.id
		p.Sleep(c.prm.ShmOverhead)
		if kind == cellRTS {
			// Free the cell before announcing: the engine may accept the
			// rendezvous synchronously, and the handshake must not hold the
			// ring.
			cl.full = false
			c.in.head++
			c.notify()
			prog = true
			c.h.ArriveRTS(p, env, c, id)
			continue
		}
		sink := c.h.ArriveEager(p, env)
		if kind == cellLarge {
			c.drain, c.rsink, c.rtotal, c.roff = true, sink, env.Len, 0
		} else if env.Len > 0 {
			dst := c.node.Mem.MustResolve(sink.Buf.Addr, env.Len)
			copy(dst, cl.mem[:env.Len])
			c.node.Bus.Memcpy(p, env.Len, env.Len)
		}
		cl.full = false
		c.in.head++
		c.notify() // a freed cell may unblock the sender
		prog = true
		if kind == cellEager && sink.Done != nil {
			sink.Done(p)
		}
	}
}
