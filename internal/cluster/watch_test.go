package cluster_test

import (
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// TestWatchRailOneWakesItsOwner: on a 2-rail, 2-core layout an RDMA write
// landing through rail 1 wakes the rank whose queue pair it lands on — the
// lossless multi-rail wake-up the node-wide counter used to give — and not
// its neighbour on the node, who sleeps until its own watch is notified.
func TestWatchRailOneWakesItsOwner(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 4, CoresPerNode: 2, RailsPerNode: 2,
		Transport: cluster.TransportZeroCopy})
	defer c.Close()
	railQP := func(rank, peer int) *ib.QP {
		conn := c.Ranks[rank].Endpoint(int32(peer)).(*ch3.Conn)
		return conn.Endpoint().(rdmachan.RawAccess).RailQP(1)
	}
	const later = 20 * des.Microsecond
	var flagVA uint64
	var rkey uint32
	var sawFlag, woke1 des.Time
	c.Launch(func(comm *mpi.Comm) {
		p := comm.Proc()
		switch comm.Rank() {
		case 0:
			qp := railQP(0, 2)
			if qp.HCA() != c.Rails[0][1] {
				t.Error("RailQP(1) is not on node 0's rail 1")
				return
			}
			var flag []byte
			flagVA, flag = c.Nodes[0].Mem.Alloc(8)
			mr, err := c.Rails[0][1].RegisterMR(p, qp.PD(), flagVA, 8,
				ib.AccessLocalWrite|ib.AccessRemoteWrite)
			if err != nil {
				t.Error(err)
				return
			}
			rkey = mr.RKey()
			c.Ranks[0].Watch().Wait(p, func() bool { return flag[0] == 1 })
			sawFlag = p.Now()
			p.Sleep(later)
			c.Ranks[1].Watch().Notify()
		case 1:
			w := c.Ranks[1].Watch()
			w.WaitSince(p, w.Seq())
			woke1 = p.Now()
		case 2:
			p.Sleep(50 * des.Microsecond) // after rank 0 has registered
			qp := railQP(2, 0)
			va, src := c.Nodes[1].Mem.Alloc(8)
			src[0] = 1
			mr, err := c.Rails[1][1].RegisterMR(p, qp.PD(), va, 8, ib.AccessLocalWrite)
			if err != nil {
				t.Error(err)
				return
			}
			qp.PostSend(p, ib.SendWR{Op: ib.OpRDMAWrite, SGL: []ib.SGE{{Addr: va, Len: 8, LKey: mr.LKey()}},
				RemoteAddr: flagVA, RKey: rkey})
		}
	})
	if sawFlag == 0 {
		t.Fatal("rank 0 never saw the write")
	}
	if want := sawFlag + later + c.Prm.PollDetect; woke1 != want {
		t.Errorf("rank 1 woke at %v, want %v: the write on rail 1 was for rank 0 only", woke1, want)
	}
}

// TestWatchLinkDownWakesEveryRank: a link going down is the one event every
// poller of a node sees, so it wakes all four ranks of the node and none of
// the other node's.
func TestWatchLinkDownWakesEveryRank(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 8, CoresPerNode: 4, ConnectMode: cluster.ConnectLazy,
		Transport: cluster.TransportZeroCopy})
	defer c.Close()
	t0 := c.Now()
	c.Eng.Schedule(t0+10*des.Microsecond, c.HCAs[0].LinkDown)
	c.Eng.Schedule(t0+20*des.Microsecond, c.HCAs[1].LinkDown)
	woke := make([]des.Time, c.Size())
	c.Launch(func(comm *mpi.Comm) {
		p := comm.Proc()
		w := c.Ranks[comm.Rank()].Watch()
		w.WaitSince(p, w.Seq())
		woke[comm.Rank()] = p.Now() - t0
	})
	for r, at := range woke {
		want := 10*des.Microsecond*des.Time(1+c.NodeOf(r)) + c.Prm.PollDetect
		if at != want {
			t.Errorf("rank %d (node %d) woke at +%v, want +%v", r, c.NodeOf(r), at, want)
		}
	}
}
