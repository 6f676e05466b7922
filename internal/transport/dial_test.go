package transport

import (
	"testing"

	"repro/internal/des"
)

// orderEP is a fakeEP that also logs the tag of every send, whichever the
// protocol, in the order it was handed over.
type orderEP struct {
	fakeEP
	tags []int32
}

func (o *orderEP) SendEager(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc)) {
	o.tags = append(o.tags, env.Tag)
	o.fakeEP.SendEager(p, env, payload, onDone)
}

func (o *orderEP) SendRendezvous(p *des.Proc, env Envelope, payload Buffer, onDone func(p *des.Proc)) {
	o.tags = append(o.tags, env.Tag)
	o.fakeEP.SendRendezvous(p, env, payload, onDone)
}

// TestDialLifecycle walks one lazy connection through the engine alone, with
// a fake dialer standing in for the cluster's connection manager: sends
// queue on the dial, Fulfill makes the peer connected without driving the
// endpoint, and the next pass installs it and flushes in posted order.
func TestDialLifecycle(t *testing.T) {
	e, eng, node := newEngine(3)
	var dialed []int32
	e.SetDialer(func(_ *des.Proc, peer int32) { dialed = append(dialed, peer) })
	ep := &orderEP{fakeEP: fakeEP{threshold: 1 << 10}}
	run(eng, func(p *des.Proc) {
		va, _ := node.Mem.Alloc(2 << 10)
		rv, _ := node.Mem.Alloc(64)
		e.Irecv(p, AnySource, AnyTag, 0, Buffer{Addr: rv, Len: 64})
		if len(dialed) != 0 || e.Connected(1) || e.Connected(2) {
			t.Fatalf("an AnySource receive dialed %v", dialed)
		}

		big := e.Isend(p, 1, 7, 0, Buffer{Addr: va, Len: 2 << 10})
		small := e.Isend(p, 1, 8, 0, Buffer{Addr: va, Len: 64})
		if len(dialed) != 1 || dialed[0] != 1 {
			t.Fatalf("two sends to one peer dialed %v, want [1]", dialed)
		}
		if e.Endpoint(1) != nil || e.Connected(1) {
			t.Fatal("peer 1 connected before Fulfill")
		}
		e.Progress(p, false)
		if big.Done() || small.Done() {
			t.Fatal("a send completed before the connection was up")
		}

		e.Fulfill(1, ep)
		if !e.Connected(1) {
			t.Fatal("a fulfilled dial does not count as connected")
		}
		if e.Endpoint(1) != nil {
			t.Fatal("Endpoint returned the fulfilled endpoint before the pass installed it")
		}
		var seen []Endpoint
		e.ForEachEndpoint(func(peer int32, x Endpoint) {
			if peer == 1 {
				seen = append(seen, x)
			}
		})
		if len(seen) != 1 || seen[0] != Endpoint(ep) {
			t.Fatalf("ForEachEndpoint visited %v for peer 1, want the fulfilled endpoint once", seen)
		}
		if len(ep.tags) != 0 {
			t.Fatal("the endpoint saw a send before the owner's pass")
		}

		e.Progress(p, false)
		if e.Endpoint(1) != Endpoint(ep) {
			t.Fatal("the pass after Fulfill did not install the endpoint")
		}
		if len(ep.tags) != 2 || ep.tags[0] != 7 || ep.tags[1] != 8 {
			t.Fatalf("flushed tags %v, want [7 8] in posted order", ep.tags)
		}
		if len(ep.rndv) != 1 || ep.rndv[0].Tag != 7 || len(ep.eager) != 1 || ep.eager[0].Tag != 8 {
			t.Fatalf("flushed rendezvous %+v, eager %+v; want tag 7 announced, tag 8 eager", ep.rndv, ep.eager)
		}
		if !big.Done() || !small.Done() {
			t.Fatal("flushed sends incomplete")
		}
		e.Isend(p, 1, 9, 0, Buffer{Addr: va, Len: 64})
		if len(dialed) != 1 || len(ep.eager) != 2 {
			t.Fatalf("a send over the installed endpoint dialed %v, eager sends %d", dialed, len(ep.eager))
		}
	})
}
