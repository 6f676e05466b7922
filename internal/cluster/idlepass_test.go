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
	"repro/internal/transport"
)

// idleCharge is the zero-copy design's per-Get entry charge: ChanOverhead
// (200 ns) + ZCCheckOverhead (50 ns).
const idleCharge = 250 * des.Nanosecond

// getCalls returns the Get counter of each of rank's chunk endpoints.
func getCalls(c *cluster.Cluster, rank int) []uint64 {
	var calls []uint64
	c.Ranks[rank].ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
		calls = append(calls, ep.(*ch3.Conn).Endpoint().Stats().GetCalls)
	})
	return calls
}

// idlePass launches a 32-rank eager zero-copy mesh in which rank 0, once
// every other rank has exited, makes one non-blocking progress pass over
// its 31 idle endpoints; during is called just before the pass with its
// start time. It returns the events dispatched and simulated time spent
// inside the pass.
func idlePass(t *testing.T, c *cluster.Cluster, during func(t0 des.Time)) (events uint64, took des.Time) {
	t.Helper()
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() != 0 {
			return
		}
		p := comm.Proc()
		p.Sleep(des.Microsecond) // let the other ranks' start events drain
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
	events, took := idlePass(t, c, func(des.Time) {})
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
		events, took := idlePass(t, c, func(t0 des.Time) {
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

// TestReadySetSRQ pins the ready set (DESIGN.md §18) on the lazy SRQ stack
// against the engine that polled every connection every pass: the finish
// times and event counts below were measured at the commit before it.
//
// A 16 KB allgather at np=32 is all rendezvous — every CTS and FIN is queued
// from HandleSRQPacket inside the shared pool poll and goes out in the pass
// that received its RTS — and no send ever waits for a staging slot, so no
// connection arms and no endpoint poll is made at all. A burst of 8-byte
// sends then outruns the 16 staging slots: the stalled connections arm and
// are polled until they drain, at the instants the full scan retried them.
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
