package ch3

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/rdmachan"
	"repro/internal/transport"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(kind, nRails byte, src, tag, ctx int32, ln uint32, reqID, raddr uint64, rkeys [maxHdrRails]uint32, seq uint64) bool {
		h := header{
			kind: kind, nRails: nRails,
			env:   transport.Envelope{Src: src, Tag: tag, Ctx: ctx, Len: int(ln)},
			reqID: reqID, raddr: raddr, rkeys: rkeys, seq: seq,
		}
		var buf [hdrSize]byte
		encodeHeader(buf[:], h)
		got := decodeHeader(buf[:])
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// matcher is a minimal progress engine standing in for the transport
// engine in conn tests.
type matcher struct {
	node     *model.Node
	arrived  []transport.Envelope
	rts      []uint64
	deferRTS bool
	sinkBufs []transport.Buffer
	done     int
}

func (m *matcher) ArriveEager(p *des.Proc, env transport.Envelope) transport.Sink {
	m.arrived = append(m.arrived, env)
	va, _ := m.node.Mem.Alloc(maxInt(env.Len, 1))
	buf := transport.Buffer{Addr: va, Len: env.Len}
	m.sinkBufs = append(m.sinkBufs, buf)
	return transport.Sink{Buf: buf, Done: func(*des.Proc) { m.done++ }}
}

func (m *matcher) ArriveRTS(p *des.Proc, env transport.Envelope, ep transport.Endpoint, reqID uint64) {
	m.rts = append(m.rts, reqID)
	if m.deferRTS {
		return
	}
	va, _ := m.node.Mem.Alloc(env.Len)
	ep.AcceptRendezvous(p, reqID, transport.Buffer{Addr: va, Len: env.Len},
		func(*des.Proc) { m.done++ })
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

type rig struct {
	eng   *des.Engine
	nodes [2]*model.Node
	eps   [2]rdmachan.Endpoint
	match [2]*matcher
}

func newRig(t *testing.T, design rdmachan.Design) *rig {
	t.Helper()
	r := &rig{eng: des.NewEngine()}
	prm := model.Testbed()
	fab := ib.NewFabric(r.eng, prm)
	var hcas [2]*ib.HCA
	for i := 0; i < 2; i++ {
		r.nodes[i] = model.NewNode(i, prm)
		hcas[i] = fab.NewHCA(r.nodes[i])
		r.match[i] = &matcher{node: r.nodes[i]}
	}
	r.eng.Spawn("setup", func(p *des.Proc) {
		a, b, err := rdmachan.NewConnection(p, rdmachan.Config{Design: design}, hcas[0], hcas[1])
		if err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		r.eps[0], r.eps[1] = a, b
	})
	r.eng.Run()
	return r
}

func fatalErr(t *testing.T) func(error) {
	return func(err error) { t.Errorf("conn error: %v", err) }
}

// drive runs both conns' polling until pred holds or the sim stalls.
func drive(p *des.Proc, conns []*Conn, ep rdmachan.Endpoint, pred func() bool) {
	for !pred() {
		seq := ep.EventSeq()
		prog := false
		for _, c := range conns {
			if c.Poll(p) {
				prog = true
			}
		}
		if pred() {
			return
		}
		if !prog {
			ep.WaitEventSince(p, seq)
		}
	}
}

func TestOverChannelEagerDelivery(t *testing.T) {
	r := newRig(t, rdmachan.DesignPipeline)
	c0 := NewOverChannel(r.eps[0], r.match[0], fatalErr(t))
	c1 := NewOverChannel(r.eps[1], r.match[1], fatalErr(t))

	const n = 3000
	payVA, pay := r.nodes[0].Mem.Alloc(n)
	for i := range pay {
		pay[i] = byte(i * 11)
	}
	sent := false
	r.eng.Spawn("rank0", func(p *des.Proc) {
		c0.SendEager(p, transport.Envelope{Src: 0, Tag: 42, Ctx: 0, Len: n},
			transport.Buffer{Addr: payVA, Len: n}, func(*des.Proc) { sent = true })
		drive(p, []*Conn{c0}, r.eps[0], func() bool { return sent })
	})
	r.eng.Spawn("rank1", func(p *des.Proc) {
		drive(p, []*Conn{c1}, r.eps[1], func() bool { return r.match[1].done == 1 })
	})
	r.eng.Run()
	if !sent || r.match[1].done != 1 {
		t.Fatal("message not delivered")
	}
	env := r.match[1].arrived[0]
	if env.Src != 0 || env.Tag != 42 || env.Len != n {
		t.Fatalf("envelope = %+v", env)
	}
	got := r.nodes[1].Mem.MustResolve(r.match[1].sinkBufs[0].Addr, n)
	if !bytes.Equal(got, pay) {
		t.Fatal("payload corrupted")
	}
	if c0.Pending() != 0 {
		t.Fatal("send queue not drained")
	}
	if c0.RendezvousThreshold() != 0 {
		t.Fatal("over-channel mode must report a zero rendezvous threshold")
	}
}

func TestIBConnRendezvousNoUnexpectedCopy(t *testing.T) {
	r := newRig(t, rdmachan.DesignPipeline)
	c0 := NewIBConn(r.eps[0], r.match[0], 0, fatalErr(t))
	c1 := NewIBConn(r.eps[1], r.match[1], 0, fatalErr(t))

	if c0.RendezvousThreshold() != 32<<10 {
		t.Fatalf("default threshold = %d, want 32K", c0.RendezvousThreshold())
	}
	const n = 256 << 10 // above the 32K default threshold
	payVA, pay := r.nodes[0].Mem.Alloc(n)
	for i := range pay {
		pay[i] = byte(i * 31)
	}
	sent := false
	r.eng.Spawn("rank0", func(p *des.Proc) {
		c0.SendRendezvous(p, transport.Envelope{Src: 0, Tag: 1, Ctx: 0, Len: n},
			transport.Buffer{Addr: payVA, Len: n}, func(*des.Proc) { sent = true })
		drive(p, []*Conn{c0}, r.eps[0], func() bool { return sent })
	})
	r.eng.Spawn("rank1", func(p *des.Proc) {
		drive(p, []*Conn{c1}, r.eps[1], func() bool { return r.match[1].done == 1 })
	})
	r.eng.Run()
	if !sent {
		t.Fatal("rendezvous send incomplete")
	}
	if len(r.match[1].rts) != 1 {
		t.Fatalf("RTS count = %d", len(r.match[1].rts))
	}
	if s := c0.Stats(); s.RndvSends != 1 || s.EagerSends != 0 {
		t.Fatalf("sender stats = %+v", s)
	}
	if s := c1.Stats(); s.RndvRecvs != 1 {
		t.Fatalf("receiver stats = %+v", s)
	}
}

func TestIBConnEagerBelowThreshold(t *testing.T) {
	r := newRig(t, rdmachan.DesignPipeline)
	c0 := NewIBConn(r.eps[0], r.match[0], 64<<10, fatalErr(t))
	c1 := NewIBConn(r.eps[1], r.match[1], 64<<10, fatalErr(t))

	const n = 40 << 10 // below the explicit 64K threshold
	payVA, _ := r.nodes[0].Mem.Alloc(n)
	sent := false
	r.eng.Spawn("rank0", func(p *des.Proc) {
		c0.SendEager(p, transport.Envelope{Src: 0, Tag: 1, Ctx: 0, Len: n},
			transport.Buffer{Addr: payVA, Len: n}, func(*des.Proc) { sent = true })
		drive(p, []*Conn{c0}, r.eps[0], func() bool { return sent })
	})
	r.eng.Spawn("rank1", func(p *des.Proc) {
		drive(p, []*Conn{c1}, r.eps[1], func() bool { return r.match[1].done == 1 })
	})
	r.eng.Run()
	if s := c0.Stats(); s.EagerSends != 1 || s.RndvSends != 0 {
		t.Fatalf("stats = %+v; 40K under a 64K threshold must go eager", s)
	}
	if len(r.match[1].rts) != 0 {
		t.Fatal("unexpected RTS for an eager message")
	}
}

func TestOverChannelRejectsRendezvous(t *testing.T) {
	r := newRig(t, rdmachan.DesignPipeline)
	c0 := NewOverChannel(r.eps[0], r.match[0], fatalErr(t))
	defer func() {
		if recover() == nil {
			t.Fatal("AcceptRendezvous on an over-channel conn should panic")
		}
	}()
	c0.AcceptRendezvous(nil, 0, transport.Buffer{}, nil)
}

func TestIBConnRequiresChunkEndpoint(t *testing.T) {
	r := newRig(t, rdmachan.DesignBasic)
	defer func() {
		if recover() == nil {
			t.Fatal("IBConn over the basic design should panic")
		}
	}()
	NewIBConn(r.eps[0], r.match[0], 0, fatalErr(t))
}

// TestRequeueAheadOrder pins what SRQConn.adopt needs of its send queues
// after a re-dial: retained packets leave first, oldest first, then the ones
// queued during the outage in their own order — and the queue's buffer is
// the one it had, not a longer one per outage.
func TestRequeueAheadOrder(t *testing.T) {
	op := func(id uint64) *packet { return &packet{hdr: header{reqID: id}} }
	var q des.Queue[*packet]
	for id := uint64(1); id <= 5; id++ {
		q.Put(op(id))
	}
	q.TryGet() // 1 and 2 were staged before the rail died
	q.TryGet()
	for outage := 0; outage < 3; outage++ {
		requeueAhead(&q, []*packet{op(1), op(2)})
		var got []uint64
		for _, o := range q.Pending() {
			got = append(got, o.hdr.reqID)
		}
		if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("outage %d: queue holds %v, want %v", outage, got, want)
		}
		if c := cap(q.Pending()); c > 8 {
			t.Fatalf("outage %d: queue buffer grew to %d for 5 packets", outage, c)
		}
		q.TryGet()
		q.TryGet()
	}
	requeueAhead(&q, nil)
	if first, _ := q.Peek(); q.Len() != 3 || first.hdr.reqID != 3 {
		t.Fatalf("requeueAhead of nothing changed the queue: len %d, head %d", q.Len(), first.hdr.reqID)
	}
}

// TestSRQOpRecycled: a packet record that drain has handed back (it appends
// the staged record to free) serves the next put without an allocation and
// carries nothing of its previous packet over.
func TestSRQOpRecycled(t *testing.T) {
	c := &SRQConn{}
	c.car = c
	restage := func() *packet {
		op, _ := c.dataq.TryGet()
		c.free = append(c.free, op)
		return op
	}
	c.put(&c.dataq, packet{hdr: header{reqID: 1}, rekey: true, onDone: func(*des.Proc) {}})
	first := restage()
	if allocs := testing.AllocsPerRun(100, func() {
		c.put(&c.dataq, packet{hdr: header{reqID: 2}})
		restage()
	}); allocs != 0 {
		t.Errorf("put with a free record allocates %.0f times", allocs)
	}
	c.put(&c.ctrlq, packet{hdr: header{reqID: 3}})
	if got, _ := c.ctrlq.Peek(); got != first || got.rekey || got.onDone != nil || got.hdr.reqID != 3 {
		t.Errorf("recycled record = %+v (reused: %v), want a clean record for packet 3", got, got == first)
	}
	if len(c.free) != 0 {
		t.Errorf("%d records free after the only one was reused", len(c.free))
	}
}
