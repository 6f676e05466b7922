package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

// railChecksum runs a traffic mix that exercises both the eager rail
// policy and the striped zero-copy rendezvous on every rank pair — a
// large-payload ring exchange followed by a Bcast+Reduce round — and
// returns one checksum per rank.
func railChecksum(t *testing.T, tp scenario.Scenario, tr cluster.Transport, rails int) []uint64 {
	t.Helper()
	cfg := tp.Config
	cfg.RailsPerNode, cfg.Transport = rails, tr
	sums := make([]uint64, tp.Config.NP)
	launch(t, scenario.Scenario{Config: cfg}, func(comm *mpi.Comm) {
		const small, large = 2000, 80 << 10
		rank, np := comm.Rank(), comm.Size()
		next, prev := (rank+1)%np, (rank+np-1)%np

		sbuf, sb := comm.Alloc(large)
		rbuf, rb := comm.Alloc(large)
		for i := range sb {
			sb[i] = byte(i*11 + rank*3 + 1)
		}
		comm.Sendrecv(sbuf, next, 1, rbuf, prev, 1)

		var sum uint64 = 14695981039346656037
		mix := func(b []byte) {
			for _, x := range b {
				sum = (sum ^ uint64(x)) * 1099511628211
			}
		}
		mix(rb)

		cbuf, cb := comm.Alloc(small)
		if rank == 0 {
			for i := range cb {
				cb[i] = byte(i * 7)
			}
		}
		comm.Bcast(cbuf, 0)
		mix(cb)

		ibuf, ib := comm.Alloc(8)
		obuf, ob := comm.Alloc(8)
		mpi.PutInt64(ib, 0, int64(sum%1000003))
		comm.Reduce(ibuf, obuf, mpi.Int64, mpi.Sum, 0)
		if rank == 0 {
			mix(ob)
		}
		sums[rank] = sum
	})
	return sums
}

// TestStripedRendezvousChecksumAcrossRails verifies that rails=2 and
// rails=4 runs deliver byte-for-byte the same data as rails=1 on the full
// scenario.Collectives layouts, for both striping implementations — the
// zero-copy design's RDMA-read blocks and the direct CH3 design's
// RDMA-write units: striping may reorder delivery across rails but never
// its contents.
func TestStripedRendezvousChecksumAcrossRails(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
		for _, tp := range scenario.Collectives {
			tr, tp := tr, tp
			t.Run(fmt.Sprintf("%v/%s", tr, tp.Name), func(t *testing.T) {
				base := railChecksum(t, tp, tr, 1)
				for _, rails := range []int{2, 4} {
					got := railChecksum(t, tp, tr, rails)
					for r := range base {
						if got[r] != base[r] {
							t.Errorf("rails=%d rank %d checksum %#x, rails=1 got %#x",
								rails, r, got[r], base[r])
						}
					}
				}
			})
		}
	}
}

// TestRailSweepAllTopologies runs a collective round on every topology at
// each rail count, catching rail-related deadlocks or wakeup losses in
// the hierarchical algorithms.
func TestRailSweepAllTopologies(t *testing.T) {
	for _, tp := range scenario.Collectives {
		for _, rails := range []int{2, 4} {
			tp, rails := tp, rails
			t.Run(fmt.Sprintf("%s/rails=%d", tp.Name, rails), func(t *testing.T) {
				cfg := tp.Config
				cfg.RailsPerNode = rails
				launch(t, scenario.Scenario{Config: cfg}, func(comm *mpi.Comm) {
					buf, b := comm.Alloc(48 << 10)
					if comm.Rank() == 0 {
						for i := range b {
							b[i] = byte(i * 5)
						}
					}
					comm.Bcast(buf, 0)
					for i := range b {
						if b[i] != byte(i*5) {
							t.Errorf("rank %d: wrong byte %d", comm.Rank(), i)
							return
						}
					}
					comm.Barrier()
				})
			})
		}
	}
}
