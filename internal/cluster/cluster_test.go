package cluster

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/shmchan"
)

func TestClusterConstruction(t *testing.T) {
	c := MustNew(Config{NP: 4, Transport: TransportZeroCopy})
	if len(c.Nodes) != 4 || len(c.HCAs) != 4 || len(c.Ranks) != 4 {
		t.Fatal("cluster incompletely constructed")
	}
	for i, eng := range c.Ranks {
		for j := 0; j < 4; j++ {
			if i == j {
				if eng.Endpoint(int32(j)) != nil {
					t.Errorf("rank %d has a self connection", i)
				}
				continue
			}
			if eng.Endpoint(int32(j)) == nil {
				t.Errorf("rank %d missing connection to %d", i, j)
			}
		}
	}
}

func TestLaunchReusable(t *testing.T) {
	// One cluster, several application launches (as the NAS harness does
	// when reusing a cluster for warmup + measurement).
	c := MustNew(Config{NP: 2, Transport: TransportPipeline})
	for round := 0; round < 3; round++ {
		completed := 0
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(128)
			if comm.Rank() == 0 {
				comm.Send(buf, 1, round)
			} else {
				comm.Recv(buf, 0, round)
			}
			completed++
		})
		if completed != 2 {
			t.Fatalf("round %d: %d ranks completed", round, completed)
		}
	}
	if c.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestTransportStrings(t *testing.T) {
	want := map[Transport]string{
		TransportBasic:     "basic",
		TransportPiggyback: "piggyback",
		TransportPipeline:  "pipeline",
		TransportZeroCopy:  "rdma-channel-zerocopy",
		TransportCH3:       "ch3-zerocopy",
	}
	for tr, s := range want {
		if tr.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(tr), tr.String(), s)
		}
	}
}

func TestRejectsTinyCluster(t *testing.T) {
	if _, err := New(Config{NP: 1, Transport: TransportZeroCopy}); err == nil {
		t.Fatal("NP=1 should be rejected with an error")
	}
}

func TestSimulatedTimeIndependentOfHost(t *testing.T) {
	run := func() float64 {
		c := MustNew(Config{NP: 3, Transport: TransportCH3})
		var end float64
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(64 << 10)
			comm.Bcast(buf, 0)
			comm.Barrier()
			end = comm.Wtime()
		})
		return end
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster timing: %v vs %v", a, b)
	}
}

func TestSMPWiring(t *testing.T) {
	// 6 ranks at 2 per node: three nodes, co-located pairs over shared
	// memory, remote pairs over the selected InfiniBand transport.
	c := MustNew(Config{NP: 6, CoresPerNode: 2, Transport: TransportZeroCopy})
	defer c.Close()
	if len(c.Nodes) != 3 || len(c.HCAs) != 3 || len(c.Ranks) != 6 {
		t.Fatalf("got %d nodes, %d HCAs, %d ranks; want 3, 3, 6",
			len(c.Nodes), len(c.HCAs), len(c.Ranks))
	}
	for i := 0; i < 6; i++ {
		if want := i / 2; c.NodeOf(i) != want {
			t.Errorf("NodeOf(%d) = %d, want %d", i, c.NodeOf(i), want)
		}
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			conn := c.Ranks[i].Endpoint(int32(j))
			if conn == nil {
				t.Fatalf("rank %d missing connection to %d", i, j)
			}
			_, shm := conn.(*shmchan.Conn)
			if sameNode := i/2 == j/2; shm != sameNode {
				t.Errorf("conn %d->%d: shm=%v, same node=%v (%T)", i, j, shm, sameNode, conn)
			}
		}
	}
	// Co-located ranks share their node's adapter.
	if c.Ranks[0].HCA() != c.Ranks[1].HCA() || c.Ranks[0].HCA() == c.Ranks[2].HCA() {
		t.Error("HCA sharing does not follow node placement")
	}
}

func TestSMPEndToEnd(t *testing.T) {
	// All transports must coexist with shared-memory pairs on an uneven
	// layout (nodes of 3, 3, 1).
	for _, tr := range []Transport{TransportBasic, TransportPiggyback,
		TransportPipeline, TransportZeroCopy, TransportCH3} {
		c := MustNew(Config{NP: 7, CoresPerNode: 3, Transport: tr})
		sum := 0
		c.Launch(func(comm *mpi.Comm) {
			send, sb := comm.Alloc(8)
			recv, rb := comm.Alloc(8)
			mpi.PutInt64(sb, 0, int64(comm.Rank()))
			comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
			if comm.Rank() == 0 {
				sum = int(mpi.GetInt64(rb, 0))
			}
		})
		c.Close()
		if sum != 21 {
			t.Errorf("%s: allreduce sum = %d, want 21", tr, sum)
		}
	}
}
