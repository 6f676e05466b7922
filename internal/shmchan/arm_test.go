package shmchan_test

import (
	"testing"

	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/shmchan"
	"repro/internal/transport"
)

// enginePair wires one shared-memory connection between ranks 0 and 1 of a
// node, each with its own progress engine, as the cluster does for
// co-located ranks: a connection holding no work answers free, and every
// pass steps over it until it is touched and answers busy.
func enginePair() (eng *des.Engine, e [2]*transport.Engine, conn [2]*shmchan.Conn, mem *model.Memory) {
	eng = des.NewEngine()
	prm := model.Testbed()
	node := model.NewNode(0, prm)
	hca := ib.NewFabric(eng, prm).NewHCA(node)
	e = [2]*transport.Engine{transport.NewEngine(0, 2, hca), transport.NewEngine(1, 2, hca)}
	conn[0], conn[1] = shmchan.NewPair(hca, shmchan.Config{}, e[0], e[1])
	e[0].SetEndpoint(1, conn[0])
	e[1].SetEndpoint(0, conn[1])
	return eng, e, conn, node.Mem
}

// pollsOf runs one non-blocking pass of e and returns the endpoint polls it
// made.
func pollsOf(p *des.Proc, e *transport.Engine) uint64 {
	before := e.ProgressStats().Polls
	e.Progress(p, false)
	return e.ProgressStats().Polls - before
}

// TestWriterArmsReader: a quiet reader's passes poll nothing; a cell the
// writer fills touches it, so its next pass asks, finds it busy, polls the
// connection once and takes the message, and the pass after that asks again
// and steps over a free answer.
func TestWriterArmsReader(t *testing.T) {
	eng, e, conn, mem := enginePair()
	va, _ := mem.Alloc(64)
	eng.Spawn("reader", func(p *des.Proc) {
		if n := pollsOf(p, e[1]); n != 0 {
			t.Errorf("quiet pass: %d polls, want 0", n)
		}
		p.Sleep(10 * des.Microsecond)
		if _, free := conn[1].IdlePoll(); free {
			t.Fatal("the written cell is not work for the reader")
		}
		if n := pollsOf(p, e[1]); n != 1 {
			t.Errorf("pass after the write: %d polls, want 1", n)
		}
		if _, free := conn[1].IdlePoll(); !free {
			t.Error("the reader holds work after taking the message")
		}
		asks := e[1].ProgressStats().IdleAsks
		if n := pollsOf(p, e[1]); n != 0 {
			t.Errorf("pass after taking the message: %d polls, want 0", n)
		}
		if n := e[1].ProgressStats().IdleAsks - asks; n != 1 {
			t.Errorf("pass after taking the message: %d asks, want 1", n)
		}
		e[1].Wait(p, e[1].Irecv(p, 0, 7, 0, transport.Buffer{Addr: va + 32, Len: 16}))
	})
	eng.Spawn("writer", func(p *des.Proc) {
		p.Sleep(des.Microsecond)
		e[0].Wait(p, e[0].Isend(p, 1, 7, 0, transport.Buffer{Addr: va, Len: 16}))
		if n := pollsOf(p, e[0]); n != 0 {
			t.Errorf("writer's pass after its send completed: %d polls, want 0", n)
		}
	})
	eng.Run()
}

// TestBlockedSenderRepolled: a send that finds the ring full stays queued,
// and the Poll that left it there touches the free answer a pass held
// before; it goes out once the consumer frees a cell, which touches the
// sender again and wakes its blocked progress loop.
func TestBlockedSenderRepolled(t *testing.T) {
	eng, e, conn, mem := enginePair()
	const msgs = shmchan.Cells + 1
	va, _ := mem.Alloc(2 * msgs * 8)
	eng.Spawn("sender", func(p *des.Proc) {
		if n := pollsOf(p, e[0]); n != 0 { // holds the quiet connection's free answer
			t.Errorf("quiet pass: %d polls, want 0", n)
		}
		var reqs []*transport.Request
		for i := 0; i < msgs; i++ {
			reqs = append(reqs, e[0].Isend(p, 1, int32(i), 0, transport.Buffer{Addr: va + uint64(8*i), Len: 8}))
		}
		if _, free := conn[0].IdlePoll(); reqs[msgs-1].Done() || free {
			t.Fatal("the send past the ring's cells did not wait")
		}
		e[0].WaitAll(p, reqs...)
		if _, free := conn[0].IdlePoll(); !free {
			t.Error("the sender holds work after its last send went out")
		}
	})
	eng.Spawn("receiver", func(p *des.Proc) {
		p.Sleep(100 * des.Microsecond) // the sender is blocked by now
		for i := 0; i < msgs; i++ {
			e[1].Wait(p, e[1].Irecv(p, 0, int32(i), 0, transport.Buffer{Addr: va + uint64(8*(msgs+i)), Len: 8}))
		}
	})
	eng.Run()
	if st := e[0].ProgressStats(); st.PollHits != 1 {
		t.Errorf("sender: %d polls, %d moved something; want exactly one that sent the waiting message",
			st.Polls, st.PollHits)
	}
}
