package bench

import (
	"repro/internal/cluster"
	"repro/internal/mpi"
)

// SMP experiments: the multi-core-node scenario the paper leaves as future
// work. The paper's Figure 3 is the shared-memory communication scheme its
// RDMA designs emulate over the network; the "fig3" experiments measure
// that scheme implemented natively (internal/shmchan) against the
// InfiniBand transports it inspired. These figures are repository
// extensions, not reproductions — DESIGN.md §4 and §6 describe them.

// Fig3Latency compares intra-node (shared memory) with inter-node
// (InfiniBand zero-copy) MPI latency. For small messages the shm channel
// wins by the full fabric round trip; for large messages the two-copy
// shm path closes on the single memory bus.
func Fig3Latency() Figure {
	sizes := sizesPow4(4, 64<<10)
	intra := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}}, sizes, latIters)
	intra.Name = "intra-node shm"
	inter := MPILatency(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, sizes, latIters)
	inter.Name = "inter-node IB"
	return Figure{
		ID: "fig3-lat", Title: "Intra-Node (Shared Memory) vs Inter-Node (InfiniBand) MPI Latency",
		XLabel: "message size (bytes)", YLabel: "time (µs)",
		Series: []Series{intra, inter},
	}
}

// Fig3Bandwidth is the bandwidth companion of Fig3Latency: the shm
// channel's two bus crossings per byte cap intra-node streaming below the
// fabric's 870 MB/s for large messages — the memory-bus bottleneck of
// §4.4 reappearing as an SMP property.
func Fig3Bandwidth() Figure {
	sizes := sizesPow4(4, 1<<20)
	intra := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: 2}}, sizes)
	intra.Name = "intra-node shm"
	inter := MPIBandwidth(Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy}}, sizes)
	inter.Name = "inter-node IB"
	return Figure{
		ID: "fig3-bw", Title: "Intra-Node (Shared Memory) vs Inter-Node (InfiniBand) MPI Bandwidth",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: []Series{intra, inter},
	}
}

// CollectiveTime measures the per-call completion time of a collective in
// microseconds, OSU-style: every iteration runs the operation and then a
// barrier, so successive calls cannot pipeline and the slowest rank's
// finish counts. Rank 0 reports the mean with the barrier-only baseline
// subtracted.
func CollectiveTime(o Options, np int, sizes []int, iters int,
	run func(comm *mpi.Comm, buf mpi.Buffer)) Series {
	pts := o.sweep(np, sizes, func(comm *mpi.Comm, size int, per *float64) {
		buf, _ := comm.Alloc(max(size, 1))
		sb := mpi.Slice(buf, 0, size)
		run(comm, sb) // warmup
		comm.Barrier()
		start := comm.Wtime()
		for i := 0; i < iters; i++ {
			comm.Barrier()
		}
		barriers := comm.Wtime() - start
		start = comm.Wtime()
		for i := 0; i < iters; i++ {
			run(comm, sb)
			comm.Barrier()
		}
		if comm.Rank() == 0 {
			*per = (comm.Wtime() - start - barriers) / float64(iters) * 1e6
		}
	})
	return Series{Points: pts}
}
