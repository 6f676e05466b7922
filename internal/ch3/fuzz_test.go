package ch3

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/rdmachan"
	"repro/internal/regcache"
	"repro/internal/transport"
)

// fakeConn is the engine over a carrier that takes every packet whole and
// keeps none: what FuzzHeader dispatches into.
type fakeConn struct{ engine }

func (c *fakeConn) admit(*packet) {}
func (c *fakeConn) push(*des.Proc, *packet) (done, moved bool, err error) {
	return true, true, nil
}
func (c *fakeConn) pump(p *des.Proc)      { c.drain(p) }
func (c *fakeConn) nudge(p *des.Proc)     { c.drain(p) }
func (c *fakeConn) Poll(p *des.Proc) bool { prog, _ := c.drain(p); return prog }

// acceptor is the transport side: it takes eager payloads nowhere and
// answers every announcement at once, with buf.
type acceptor struct{ buf transport.Buffer }

func (acceptor) ArriveEager(*des.Proc, transport.Envelope) transport.Sink { return transport.Sink{} }
func (a acceptor) ArriveRTS(p *des.Proc, _ transport.Envelope, ep transport.Endpoint, id uint64) {
	ep.AcceptRendezvous(p, id, a.buf, nil)
}

// guardRails is a real two-rail set that panics — fails the fuzz run — when
// the engine reaches for a rail the connection does not have.
type guardRails struct{ rdmachan.RawAccess }

func (g guardRails) in(k int) int {
	if k < 0 || k >= g.NRails() {
		panic(fmt.Sprintf("engine touched rail %d of %d", k, g.NRails()))
	}
	return k
}
func (g guardRails) RailQP(k int) *ib.QP                { return g.RawAccess.RailQP(g.in(k)) }
func (g guardRails) RailRegCache(k int) *regcache.Cache { return g.RawAccess.RailRegCache(g.in(k)) }
func (g guardRails) RailAlive(k int) bool               { return g.RawAccess.RailAlive(g.in(k)) }
func (g guardRails) EvictRail(k int)                    { g.RawAccess.EvictRail(g.in(k)) }

// FuzzHeader: decoding then encoding is the identity on every header that
// passes check, and dispatching arbitrary bytes into an engine that has one
// rendezvous announced and one accepted — over a pipe or a message carrier,
// resilient or not, direct or over-channel (mode) — reports through onErr,
// never panics and never indexes a rail out of range.
func FuzzHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, mode byte) {
		if len(raw) >= hdrSize {
			if h := decodeHeader(raw); h.check(32<<10, maxHdrRails, -1) == nil {
				var buf [hdrSize]byte
				encodeHeader(buf[:], h)
				if got := decodeHeader(buf[:]); got != h {
					t.Fatalf("round trip: %+v became %+v", h, got)
				}
			}
		}

		eng := des.NewEngine()
		defer eng.Shutdown()
		prm := model.Testbed()
		fab := ib.NewFabric(eng, prm)
		var rails [2][]*ib.HCA
		var nodes [2]*model.Node
		for i := range nodes {
			nodes[i] = model.NewNode(i, prm)
			rails[i] = []*ib.HCA{fab.NewRailHCA(nodes[i], 0), fab.NewRailHCA(nodes[i], 1)}
		}
		eng.Spawn("fuzz", func(p *des.Proc) {
			cfg := rdmachan.Config{Design: rdmachan.DesignPipeline}
			ep, _, err := rdmachan.NewConnectionRails(p, cfg, rails[0], rails[1], mode&2 != 0)
			if err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			const n = 48 << 10
			va, _ := nodes[0].Mem.Alloc(3 * n)
			c := &fakeConn{}
			c.engine = engine{
				car: c, self: c, onErr: func(error) {},
				h:        acceptor{transport.Buffer{Addr: va + 2*n, Len: n}},
				messages: mode&1 != 0, resilient: mode&2 != 0,
			}
			avail := -1
			if c.messages {
				avail = len(raw) - hdrSize
			}
			if mode&4 == 0 { // direct mode, mid-rendezvous in both directions
				c.threshold, c.rails, c.nRails = 32<<10, guardRails{ep.(rdmachan.RawAccess)}, 2
				c.mover = rdmachan.NewMover(c.rails, c.resilient)
				c.sendRndv = map[uint64]*rndvSend{1: {e: &c.engine, id: 1, payload: transport.Buffer{Addr: va, Len: n}}}
				c.recvRndv = map[uint64]*rndvRecv{1: {dst: transport.Buffer{Addr: va + n, Len: n}}}
			}
			if h, ok := c.decode(raw, avail); ok {
				c.dispatch(p, h)
			}
		})
		eng.Run()
	})
}
