package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// TestRDMADirectRuns is the positive proof for the direct path: on a
// capable cluster (channel design, no SRQ, no fault plan; one rail or two,
// the windows posting on rail 0) with rdma-direct forced, the collectives
// must be correct AND the per-comm direct-call counter must account for
// every call — so a silent fallback to the flat algorithms cannot
// masquerade as success. Message sizes grow across rounds to force the
// exposure region to rebuild mid-stream, and a Split sub-communicator
// builds its own exposure.
func TestRDMADirectRuns(t *testing.T) {
	for _, rails := range []int{1, 2} {
		t.Run(fmt.Sprintf("rails=%d", rails), func(t *testing.T) { testRDMADirectRuns(t, rails) })
	}
}

func testRDMADirectRuns(t *testing.T, rails int) {
	tun := mpi.Tuning{Allreduce: "rdma-direct", Alltoall: "rdma-direct"}
	c := cluster.MustNew(cluster.Config{
		NP:           5, // non-power-of-two: exercises the fold path
		Transport:    cluster.TransportZeroCopy,
		RailsPerNode: rails,
		Tuning:       &tun,
	})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		size, rank := comm.Size(), comm.Rank()
		for _, coll := range []string{"allreduce", "alltoall"} {
			if !comm.AlgorithmApplicable(coll, "rdma-direct") {
				t.Errorf("rank %d: %s/rdma-direct inapplicable on a capable flat cluster", rank, coll)
			}
		}

		const rounds = 3
		for round := 0; round < rounds; round++ {
			n := 16 << (4 * round) // 16 B → 4 KiB: spans region rebuilds
			send, sb := comm.Alloc(8 * n)
			recv, rb := comm.Alloc(8 * n)
			for i := 0; i < n; i++ {
				mpi.PutInt64(sb, i, int64(rank+i+round))
			}
			comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
			np := int64(size)
			for i := 0; i < n; i++ {
				want := np*(np-1)/2 + np*int64(i+round)
				if got := mpi.GetInt64(rb, i); got != want {
					t.Fatalf("round %d rank %d elem %d: got %d want %d", round, rank, i, got, want)
				}
			}
		}

		const bn = 32
		asend, asb := comm.Alloc(bn * size)
		arecv, arb := comm.Alloc(bn * size)
		for dst := 0; dst < size; dst++ {
			for i := 0; i < bn; i++ {
				asb[dst*bn+i] = byte(rank*37 + dst*5 + i)
			}
		}
		comm.Alltoall(asend, arecv)
		for src := 0; src < size; src++ {
			for i := 0; i < bn; i++ {
				if arb[src*bn+i] != byte(src*37+rank*5+i) {
					t.Fatalf("rank %d: alltoall block from %d wrong at %d", rank, src, i)
				}
			}
		}

		if got := comm.RDMADirectCalls(); got != rounds+1 {
			t.Errorf("rank %d: %d rdma-direct calls, want %d — some calls fell back", rank, got, rounds+1)
		}

		// A derived communicator is still all-inter-node here, so it takes
		// the direct path through its own, freshly exchanged exposure.
		sub := comm.Split(rank%2, rank)
		if sub.Size() > 1 {
			send, sb := sub.Alloc(8)
			recv, rb := sub.Alloc(8)
			mpi.PutInt64(sb, 0, int64(sub.Rank()+1))
			sub.Allreduce(send, recv, mpi.Int64, mpi.Max)
			if got := mpi.GetInt64(rb, 0); got != int64(sub.Size()) {
				t.Errorf("split rank %d: max %d want %d", sub.Rank(), got, sub.Size())
			}
			if got := sub.RDMADirectCalls(); got != 1 {
				t.Errorf("split rank %d: %d direct calls, want 1", sub.Rank(), got)
			}
		}
	})
}

// TestRDMADirectCapability pins the applicability predicate to the
// cluster facts it must depend on — and nothing else. Every incapable
// configuration must still complete a forced-rdma-direct allreduce
// correctly through the registry's flat fallback; that fallback is the
// failover story (the rail-loss sweep in internal/ch3 drives it through
// actual mid-collective rail deaths).
func TestRDMADirectCapability(t *testing.T) {
	cases := []struct {
		name string
		cfg  cluster.Config
		want bool
	}{
		{"zerocopy-flat", cluster.Config{NP: 3, Transport: cluster.TransportZeroCopy}, true},
		{"ch3-flat", cluster.Config{NP: 3, Transport: cluster.TransportCH3}, true},
		{"basic-no-raw-qp", cluster.Config{NP: 3, Transport: cluster.TransportBasic}, false},
		{"multi-rail", cluster.Config{NP: 3, Transport: cluster.TransportZeroCopy,
			RailsPerNode: 2}, true},
		{"srq-eager", cluster.Config{NP: 3, Transport: cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy, Chan: rdmachan.Config{UseSRQ: true}}, false},
		{"fault-armed", cluster.Config{NP: 3, Transport: cluster.TransportZeroCopy,
			Fault: &fault.Plan{}}, false},
		{"smp-pairs", cluster.Config{NP: 4, CoresPerNode: 2,
			Transport: cluster.TransportZeroCopy}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tun := mpi.Tuning{Allreduce: "rdma-direct"}
			tc.cfg.Tuning = &tun
			c := cluster.MustNew(tc.cfg)
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				if got := comm.AlgorithmApplicable("allreduce", "rdma-direct"); got != tc.want {
					t.Errorf("rank %d: applicable = %v, want %v", comm.Rank(), got, tc.want)
				}
				send, sb := comm.Alloc(8 * 9)
				recv, rb := comm.Alloc(8 * 9)
				for i := 0; i < 9; i++ {
					mpi.PutInt64(sb, i, int64(comm.Rank()+i))
				}
				comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
				np := int64(comm.Size())
				for i := 0; i < 9; i++ {
					if got, want := mpi.GetInt64(rb, i), np*(np-1)/2+np*int64(i); got != want {
						t.Errorf("rank %d elem %d: got %d want %d", comm.Rank(), i, got, want)
						return
					}
				}
				if want := tc.want; (comm.RDMADirectCalls() > 0) != want {
					t.Errorf("rank %d: direct calls %d, capability %v — path selection disagrees "+
						"with the predicate", comm.Rank(), comm.RDMADirectCalls(), want)
				}
			})
		})
	}
}
