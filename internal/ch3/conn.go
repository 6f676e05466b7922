package ch3

import (
	"repro/internal/des"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

// Conn is the CH3 engine over an RDMA Channel endpoint, its byte-pipe
// carrier: a packet's header is staged in a pooled slot and header and
// payload go down the pipe as one buffer list, of which Put may take any
// part; the receive side reassembles header, then payload, from Get. It
// implements transport.Endpoint in over-channel and direct mode alike.
type Conn struct {
	engine
	ep    rdmachan.Endpoint
	idle  rdmachan.IdleGetter // non-nil when an empty Get on ep costs time
	touch func()              // WatchIdle's callback; nil without idle

	hdrPool []hdrSlot // free header staging slots

	// kick: a completion reaped during the current receive sweep queued a
	// FIN or finished a send, after the send phase of that Poll pass ran. The
	// pass must report progress, or the transport would sleep on it.
	kick bool

	// Receive state machine: header, then payload. Each descriptor is what
	// Get has not filled yet, trimmed in place (trim).
	rstate   int
	rhdrBuf  transport.Buffer
	rhdrMem  []byte
	rhdrRem  [1]transport.Buffer
	rsink    transport.Sink
	rpayload [1]transport.Buffer
}

// hdrSlot is a reusable 64-byte header staging buffer. Slots return to the
// pool once their packet is fully accepted by the pipe (Put reports bytes
// only after consuming them), so the pool stays as small as the send queue
// ever gets — a real implementation's preallocated packet pool.
type hdrSlot struct {
	va  uint64
	mem []byte
}

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
// rendezvous is handled here, at the CH3 level), switching to rendezvous
// at rdmachan.DefaultZCThreshold.
func NewIBConn(ep rdmachan.Endpoint, h transport.Handler, onErr func(error)) *Conn {
	raw, ok := ep.(rdmachan.RawAccess)
	if !ok {
		panic("ch3: IBConn requires a chunk-ring endpoint")
	}
	return newConn(ep, raw, h, rdmachan.DefaultZCThreshold, onErr)
}

func newConn(ep rdmachan.Endpoint, raw rdmachan.RawAccess, h transport.Handler,
	threshold int, onErr func(error)) *Conn {
	c := &Conn{ep: ep}
	c.engine = engine{car: c, self: c, h: h, onErr: onErr, threshold: threshold}
	if raw != nil {
		c.rails, c.nRails, c.resilient = raw, raw.NRails(), raw.Resilient()
		c.mover = rdmachan.NewMover(raw, c.resilient)
	}
	c.idle, _ = ep.(rdmachan.IdleGetter)
	va, b := ep.HCA().Node().Mem.Alloc(hdrSize)
	c.rhdrBuf, c.rhdrMem = transport.Buffer{Addr: va, Len: hdrSize}, b
	c.rhdrRem[0] = c.rhdrBuf
	return c
}

// Endpoint returns the underlying channel endpoint (for statistics and the
// one-sided extension's raw-verbs access).
func (c *Conn) Endpoint() rdmachan.Endpoint { return c.ep }

// Footprint reports the connection's dedicated memory — the channel
// endpoint's rings plus queue pair (the packet engine itself adds only
// header staging).
func (c *Conn) Footprint() transport.Footprint { return c.ep.Footprint() }

// admit stages the packet's header in a pooled slot. A queued packet ends
// any idle answer the transport holds (WatchIdle).
func (c *Conn) admit(pk *packet) {
	if c.touch != nil {
		c.touch()
	}
	if n := len(c.hdrPool); n > 0 {
		pk.slot, c.hdrPool = c.hdrPool[n-1], c.hdrPool[:n-1]
	} else {
		va, b := c.ep.HCA().Node().Mem.Alloc(hdrSize)
		pk.slot = hdrSlot{va: va, mem: b}
	}
	encodeHeader(pk.slot.mem, pk.hdr)
	pk.bufs = [2]transport.Buffer{{Addr: pk.slot.va, Len: hdrSize}, pk.payload}
	pk.rem = pk.bufs[:1]
	if pk.payload.Len > 0 {
		pk.rem = pk.bufs[:2]
	}
}

// push puts what the pipe has not yet taken of pk.
func (c *Conn) push(p *des.Proc, pk *packet) (done, moved bool, err error) {
	n, err := c.ep.Put(p, pk.rem)
	if err != nil || n == 0 {
		return false, false, err
	}
	if pk.rem = trim(pk.rem, n); len(pk.rem) > 0 {
		return false, true, nil
	}
	c.hdrPool = append(c.hdrPool, pk.slot)
	return true, true, nil
}

// trim drops the first n bytes of bufs, shortening a partly taken head
// buffer where it sits instead of copying the list, and returns the rest.
func trim(bufs []transport.Buffer, n int) []transport.Buffer {
	for n > 0 && len(bufs) > 0 {
		if bufs[0].Len > n {
			bufs[0].Addr += uint64(n)
			bufs[0].Len -= n
			return bufs
		}
		n -= bufs[0].Len
		bufs = bufs[1:]
	}
	return bufs
}

// pump runs a whole Poll pass: an endpoint call is also the connection's
// chance to make receive progress.
func (c *Conn) pump(p *des.Proc) { c.Poll(p) }

// nudge runs inside this connection's own Poll, whose send phase is over:
// the pass reports progress, and the next one sends.
func (c *Conn) nudge(*des.Proc) { c.kick = true }

// Poll implements transport.Endpoint: advance the head send operation and
// drain the receive pipe.
func (c *Conn) Poll(p *des.Proc) bool {
	prog, ok := c.drain(p)
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

// WatchIdle implements transport's idle-poll hook. An IdlePoll answer goes
// stale in two ways: the ring changes behind the connection's back
// (rdmachan.IdleGetter's hooks), or its own process queues a packet
// (admit). Any other call the process makes finds the connection as its
// last answer left it: a Poll or PollCharged of an idle connection changes
// nothing, and one of a busy connection runs on no held answer.
func (c *Conn) WatchIdle(touch func()) {
	if c.idle != nil {
		c.touch = touch
		c.idle.WatchIdle(touch)
	}
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

// pollRecv drains the receive pipe. prog is the progress made so far this
// pass; charged marks the first header Get as already paid for
// (PollCharged).
func (c *Conn) pollRecv(p *des.Proc, prog, charged bool) bool {
	for {
		want := &c.rhdrRem
		if c.rstate == 1 {
			want = &c.rpayload
		}
		var n int
		var err error
		if charged {
			n, err = c.idle.GetCharged(p, want[:])
			charged = false
		} else {
			n, err = c.ep.Get(p, want[:])
		}
		if err != nil {
			c.onErr(errf("recv: %w", err))
			return prog
		}
		if n == 0 {
			// A completion reaped by this Get's CQ drain may have nudged us.
			if c.kick {
				c.kick = false
				prog = true
			}
			return prog
		}
		prog = true
		if len(trim(want[:], n)) > 0 {
			continue
		}
		if c.rstate == 1 { // payload complete
			done := c.rsink.Done
			c.rsink = transport.Sink{}
			c.rstate = 0
			if done != nil {
				done(p)
			}
			continue
		}
		c.rhdrRem[0] = c.rhdrBuf
		h, ok := c.decode(c.rhdrMem, -1)
		if !ok {
			return prog
		}
		sink, eager := c.dispatch(p, h)
		if !eager {
			continue
		}
		if h.env.Len == 0 {
			if sink.Done != nil {
				sink.Done(p)
			}
			continue
		}
		c.rsink = sink
		c.rpayload[0] = transport.Buffer{Addr: sink.Buf.Addr, Len: h.env.Len}
		c.rstate = 1
	}
}
