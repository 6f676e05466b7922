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
// co-located ranks: the connections promise free idle polls and are skipped
// by every pass until armed.
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
// writer fills arms it, so its next pass polls the connection once, takes
// the message, and leaves it disarmed again.
func TestWriterArmsReader(t *testing.T) {
	eng, e, conn, mem := enginePair()
	va, _ := mem.Alloc(64)
	eng.Spawn("reader", func(p *des.Proc) {
		if n := pollsOf(p, e[1]); n != 0 {
			t.Errorf("quiet pass: %d polls, want 0", n)
		}
		p.Sleep(10 * des.Microsecond)
		if !conn[1].HoldsWork() {
			t.Fatal("the written cell is not work for the reader")
		}
		if n := pollsOf(p, e[1]); n != 1 {
			t.Errorf("pass after the write: %d polls, want 1", n)
		}
		if conn[1].HoldsWork() {
			t.Error("the reader holds work after taking the message")
		}
		if n := pollsOf(p, e[1]); n != 0 {
			t.Errorf("pass after taking the message: %d polls, want 0", n)
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

// TestBlockedSenderRepolled: a send that finds the ring full stays queued
// and keeps its connection armed; it goes out once the consumer frees a
// cell, which arms the sender and wakes its blocked progress loop.
func TestBlockedSenderRepolled(t *testing.T) {
	eng, e, conn, mem := enginePair()
	const msgs = shmchan.Cells + 1
	va, _ := mem.Alloc(2 * msgs * 8)
	eng.Spawn("sender", func(p *des.Proc) {
		var reqs []*transport.Request
		for i := 0; i < msgs; i++ {
			reqs = append(reqs, e[0].Isend(p, 1, int32(i), 0, transport.Buffer{Addr: va + uint64(8*i), Len: 8}))
		}
		if reqs[msgs-1].Done() || !conn[0].HoldsWork() {
			t.Fatal("the send past the ring's cells did not wait")
		}
		e[0].WaitAll(p, reqs...)
		if conn[0].HoldsWork() {
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
