//go:build !desplain

package cluster_test

// Event-count regression pins for the idle poll pass (DESIGN.md §16). The
// desplain build dispatches every elided Sleep, so the counts below hold
// for the default build only; that the two builds agree on every simulated
// value is internal/mpi's TestChainsExactGolden.

import (
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/switchfab"
	"repro/internal/transport"
)

// idleCharge is the zero-copy design's per-Get entry charge: ChanOverhead
// (200 ns) + ZCCheckOverhead (50 ns).
const idleCharge = 250 * des.Nanosecond

// getCalls returns the Get counter of each of rank's chunk endpoints, in
// peer order (shared-memory endpoints have none).
func getCalls(c *cluster.Cluster, rank int) []uint64 {
	var calls []uint64
	c.Ranks[rank].ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
		if conn, ok := ep.(*ch3.Conn); ok {
			calls = append(calls, conn.Endpoint().Stats().GetCalls)
		}
	})
	return calls
}

// idlePass launches c's mesh in which rank 0, once every other rank has
// exited, makes one non-blocking progress pass over its idle endpoints,
// starting at peer start (the rotation cursor is moved there by passes made
// beforehand); during is called just before the pass with its start time.
// It returns the events dispatched and simulated time spent inside the pass.
func idlePass(t *testing.T, c *cluster.Cluster, start uint64, during func(t0 des.Time)) (events uint64, took des.Time) {
	t.Helper()
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() != 0 {
			return
		}
		p := comm.Proc()
		p.Sleep(des.Microsecond) // let the other ranks' start events drain
		for c.Ranks[0].ProgressStats().Passes%uint64(c.Size()) != start {
			c.Ranks[0].Progress(p, false) // each pass moves the cursor one rank on
		}
		t0, ev0 := p.Now(), c.Eng.EventsExecuted()
		during(t0)
		if c.Ranks[0].Progress(p, false) {
			t.Error("an idle pass reported progress")
		}
		events, took = c.Eng.EventsExecuted()-ev0, p.Now()-t0
	})
	return events, took
}

func TestIdlePassIsOneEvent(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 32, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	before := getCalls(c, 0)
	if len(before) != 31 {
		t.Fatalf("rank 0 has %d endpoints, want 31", len(before))
	}
	events, took := idlePass(t, c, 0, func(des.Time) {})
	if events != 1 || took != 31*idleCharge {
		t.Errorf("undisturbed pass: %d events over %v, want 1 event over %v", events, took, 31*idleCharge)
	}
	for i, n := range getCalls(c, 0) {
		if n != before[i]+1 {
			t.Errorf("endpoint %d: %d Gets booked for the pass, want 1", i, n-before[i])
		}
	}
}

func TestIdlePassCutResumesAtStepBoundary(t *testing.T) {
	for _, k := range []int{0, 7, 30} {
		c := cluster.MustNew(cluster.Config{NP: 32, Transport: cluster.TransportZeroCopy})
		before := getCalls(c, 0)
		var polledAtResume int
		events, took := idlePass(t, c, 0, func(t0 des.Time) {
			// Something changes on the node while endpoint k is being
			// charged; one nanosecond after that charge ends, exactly the
			// endpoints up to and including k must have been polled.
			c.Eng.Schedule(t0+des.Time(k)*idleCharge+100, c.HCAs[0].NotifyMemWrite)
			c.Eng.Schedule(t0+des.Time(k+1)*idleCharge+1, func() {
				for i, n := range getCalls(c, 0) {
					if n != before[i] {
						polledAtResume++
					}
				}
			})
		})
		if polledAtResume != k+1 {
			t.Errorf("cut at endpoint %d: %d endpoints polled at t0+%v, want %d",
				k, polledAtResume, des.Time(k+1)*idleCharge, k+1)
		}
		// The two callbacks, the cut wake and the chain over the rest —
		// unless the cut fell in the last charge: that changes nothing, and
		// the probe fires after the pass.
		want := uint64(4)
		if k == 30 {
			want = 2
		}
		if events != want || took != 31*idleCharge {
			t.Errorf("cut at endpoint %d: %d events over %v, want %d over %v",
				k, events, took, want, 31*idleCharge)
		}
		c.Close()
	}
}

// TestIdlePassHoldsAnswers: an idle answer is asked once and held until its
// endpoint is touched (DESIGN.md §18), so a second quiet pass over the 31
// endpoints asks nothing, and a message landing in one ring re-asks exactly
// that slot.
func TestIdlePassHoldsAnswers(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 32, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	eng := c.Ranks[0]
	pass := func(p *des.Proc, what string, wantAsks uint64, wantProg bool) {
		asks := eng.ProgressStats().IdleAsks
		if prog := eng.Progress(p, false); prog != wantProg {
			t.Errorf("%s: progress %v, want %v", what, prog, wantProg)
		}
		if n := eng.ProgressStats().IdleAsks - asks; n != wantAsks {
			t.Errorf("%s: %d IdlePoll asks, want %d", what, n, wantAsks)
		}
	}
	c.Launch(func(comm *mpi.Comm) {
		p := comm.Proc()
		buf, _ := comm.Alloc(8)
		switch comm.Rank() {
		case 0:
			p.Sleep(des.Microsecond)
			pass(p, "first quiet pass", 31, false)
			pass(p, "second quiet pass", 0, false)
			p.Sleep(50 * des.Microsecond) // rank 5's message lands meanwhile
			pass(p, "pass after the write", 1, true)
			comm.Recv(buf, 5, 0)
		case 5:
			p.Sleep(20 * des.Microsecond) // after rank 0's quiet passes
			comm.Send(buf, 0, 0)
		}
	})
}

// TestIdlePassCrossesQuietSlots: on a 2 × 4 SMP mesh rank 0 has three
// shared-memory peers (1–3), answering free while quiet, between its chunk-ring
// peers in a pass that starts at peer 6: the run is 6, 7, across 1–3, then
// 4, 5 — one chain, one event. A cut during the charge of step k resumes
// after that step's slot, so every chunk endpoint is charged exactly once,
// the quiet slots are never polled, and the pass takes four charges.
func TestIdlePassCrossesQuietSlots(t *testing.T) {
	const steps = 4
	for _, k := range []int{-1, 0, 1, 2, 3} { // -1: undisturbed
		c := cluster.MustNew(cluster.Config{NP: 8, CoresPerNode: 4, Transport: cluster.TransportZeroCopy})
		var before []uint64
		var polls uint64
		polledAtResume := 0
		events, took := idlePass(t, c, 6, func(t0 des.Time) {
			before, polls = getCalls(c, 0), c.Ranks[0].ProgressStats().Polls
			if k < 0 {
				return
			}
			c.Eng.Schedule(t0+des.Time(k)*idleCharge+100, c.HCAs[0].NotifyMemWrite)
			c.Eng.Schedule(t0+des.Time(k+1)*idleCharge+1, func() {
				for i, n := range getCalls(c, 0) {
					if n != before[i] {
						polledAtResume++
					}
				}
			})
		})
		if k >= 0 && polledAtResume != k+1 {
			t.Errorf("cut at step %d: %d endpoints polled at t0+%v, want %d",
				k, polledAtResume, des.Time(k+1)*idleCharge, k+1)
		}
		want := uint64(1)
		switch {
		case k == steps-1:
			want = 2 // the two callbacks: a cut in the last charge changes nothing
		case k >= 0:
			want = 4 // the two callbacks, the cut wake and the chain over the rest
		}
		if events != want || took != steps*idleCharge {
			t.Errorf("cut at step %d: %d events over %v, want %d over %v",
				k, events, took, want, steps*idleCharge)
		}
		for i, n := range getCalls(c, 0) {
			if n != before[i]+1 {
				t.Errorf("cut at step %d: chunk endpoint %d booked %d Gets, want 1", k, i, n-before[i])
			}
		}
		if n := c.Ranks[0].ProgressStats().Polls - polls; n != 0 {
			t.Errorf("cut at step %d: %d endpoint polls, want none", k, n)
		}
		c.Close()
	}
}

// TestIdlePassCollectivesPinned pins what a pass costs the harness on two
// small eager zero-copy collective bodies — allreduce and alltoall at 256 B
// and 4 KiB, twice each, plus on SMP a 4 KB neighbour ring — against the
// commit before answers were held and shared-memory peers skipped. Both
// finish at the parent's instant. The fat tree has no shared-memory peer:
// its events are the parent's, only the asks fell. On 4 × 4 SMP a shared
// memory connection is polled only when it answers busy, and a chain
// crossing free answers is one event instead of one per run between them.
// A connection touched while it holds nothing (a peer freed a cell it was
// not waiting for) is asked and stepped over (DESIGN.md §18).
func TestIdlePassCollectivesPinned(t *testing.T) {
	body := func(ring int) func(comm *mpi.Comm) {
		return func(comm *mpi.Comm) {
			np, rank := comm.Size(), comm.Rank()
			for _, n := range []int{256, 4 << 10} {
				sbuf, _ := comm.Alloc(n)
				rbuf, _ := comm.Alloc(n)
				abuf, _ := comm.Alloc(n * np)
				bbuf, _ := comm.Alloc(n * np)
				for it := 0; it < 2; it++ {
					comm.Allreduce(sbuf, rbuf, mpi.Float64, mpi.Sum)
					comm.Alltoall(abuf, bbuf)
				}
			}
			sbuf, _ := comm.Alloc(4 << 10)
			rbuf, _ := comm.Alloc(4 << 10)
			for it := 0; it < ring; it++ {
				comm.Sendrecv(sbuf, (rank+1)%np, 3, rbuf, (rank-1+np)%np, 3)
			}
		}
	}
	for _, w := range []struct {
		name         string
		cfg          cluster.Config
		ring         int
		now          des.Time
		events       uint64
		st           transport.ProgressStats
		parentEvents uint64
		parent       transport.ProgressStats
	}{
		{"smp-4x4", cluster.Config{NP: 16, Transport: cluster.TransportZeroCopy, CoresPerNode: 4}, 8,
			28900361, 26301, transport.ProgressStats{Passes: 1492, Polls: 925, PollHits: 925, IdleAsks: 2863},
			27085, transport.ProgressStats{Passes: 1492, Polls: 5125, PollHits: 925, IdleAsks: 19493}},
		{"fattree-d4-u1", cluster.Config{NP: 16, Transport: cluster.TransportZeroCopy,
			Switch: &switchfab.Config{LeafDown: 4, LeafUp: 1}}, 0,
			33907986, 30323, transport.ProgressStats{Passes: 904, Polls: 982, PollHits: 982, IdleAsks: 2958},
			30323, transport.ProgressStats{Passes: 904, Polls: 982, PollHits: 982, IdleAsks: 14395}},
	} {
		c := cluster.MustNew(w.cfg)
		c.Launch(body(w.ring))
		now, events, st := c.Now(), c.Eng.EventsExecuted(), c.ProgressStats()
		c.Close()
		if now != w.now || events != w.events || st != w.st {
			t.Errorf("%s: finished at %d ns after %d events, %+v;\nwant %d ns, %d events, %+v (parent: %d events, %+v)",
				w.name, now, events, st, w.now, w.events, w.st, w.parentEvents, w.parent)
		}
	}
}

// TestReadySetSRQ pins the ready set (DESIGN.md §18) on the lazy SRQ stack
// against the engine that polled every connection every pass: the finish
// times and event counts below were measured at the commit before it.
//
// A 16 KB allgather at np=32 is all rendezvous — every CTS and FIN is queued
// from HandleSRQPacket inside the shared pool poll and goes out in the pass
// that received its RTS — and no send ever waits for a staging slot, so
// every connection answers free and no endpoint poll is made at all. A
// burst of 8-byte sends then outruns the 16 staging slots: the stalled
// connections touch their slots, answer busy and are polled until they
// drain, at the instants the full scan retried them.
func TestReadySetSRQ(t *testing.T) {
	const np, block = 32, 16 << 10
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy,
		ConnectMode: cluster.ConnectLazy, Chan: rdmachan.Config{UseSRQ: true},
		// The pins are the ring's: 31 rendezvous steps per rank, where the
		// default table now takes 5.
		Tuning: &mpi.Tuning{Allgather: "ring"}})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		send, sb := comm.Alloc(block)
		recv, rb := comm.Alloc(np * block)
		for i := range sb {
			sb[i] = byte(comm.Rank() + i)
		}
		comm.Allgather(send, recv)
		for r := 0; r < np; r++ {
			if rb[r*block] != byte(r) || rb[(r+1)*block-1] != byte(r+block-1) {
				t.Errorf("rank %d: block %d corrupt", comm.Rank(), r)
			}
		}
	})
	if st := c.ProgressStats(); st.Polls != 0 || st.Passes == 0 {
		t.Errorf("allgather: %d passes made %d endpoint polls (%d moved something), want none",
			st.Passes, st.Polls, st.PollHits)
	}
	if now, ev := c.Now(), c.Eng.EventsExecuted(); now != 5071292 || ev != 57889 {
		t.Errorf("allgather finished at %d ns after %d events, want 5071292 ns, 57889 events", now, ev)
	}

	const msgs = 256
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(msgs * 8)
		at := func(i int) mpi.Buffer { return mpi.Buffer{Addr: buf.Addr + uint64(i*8), Len: 8} }
		var reqs []*mpi.Request
		rank := comm.Rank()
		switch rank {
		case 0:
			for i := 0; i < msgs; i++ {
				b[i*8] = byte(i)
				reqs = append(reqs, comm.Isend(at(i), 1+i%3, i))
			}
		case 1, 2, 3:
			for i := rank - 1; i < msgs; i += 3 {
				reqs = append(reqs, comm.Irecv(at(i), 0, i))
			}
		}
		comm.WaitAll(reqs...)
		for i := rank - 1; rank <= 3 && i >= 0 && i < msgs; i += 3 {
			if b[i*8] != byte(i) {
				t.Errorf("rank %d: message %d corrupt", rank, i)
			}
		}
	})
	if st := c.ProgressStats(); st.PollHits == 0 || st.Polls > msgs*3 {
		t.Errorf("burst: %d endpoint polls, %d moved something; want stalled sends retried by a few polls",
			st.Polls, st.PollHits)
	}
	if now, ev := c.Now(), c.Eng.EventsExecuted(); now != 5544881 || ev != 62312 {
		t.Errorf("burst finished at %d ns after %d events, want 5544881 ns, 62312 events", now, ev)
	}
}
