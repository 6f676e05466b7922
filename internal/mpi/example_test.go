package mpi_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// The MPI-2 extension the paper lists as future work (§9): one-sided
// Put/Get windows over RDMA write/read, and a shared counter advanced by
// InfiniBand fetch-and-add, with no target-side CPU in any data movement.
func Example_oneSided() {
	c := cluster.MustNew(cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		rank, size := comm.Rank(), comm.Size()

		// A window with a counter (offset 0) and a per-rank mailbox.
		winBuf, winBytes := comm.Alloc(8 + size*8)
		win, err := comm.WinCreate(winBuf)
		if err != nil {
			panic(err)
		}

		// Everyone puts a greeting into everyone else's mailbox, and every
		// rank but 0 takes a ticket from the counter on rank 0.
		local, lb := comm.Alloc(8)
		mpi.PutInt64(lb, 0, int64(rank*1000))
		for t := 0; t < size; t++ {
			if t != rank {
				if err := win.Put(local, t, 8+rank*8); err != nil {
					panic(err)
				}
			}
		}
		if rank != 0 {
			if _, err := win.FetchAdd(0, 0, 1); err != nil {
				panic(err)
			}
		}
		if err := win.Fence(); err != nil {
			panic(err)
		}
		if rank == 0 {
			got := 0
			for s := 1; s < size; s++ {
				if mpi.GetInt64(winBytes, 1+s) == int64(s*1000) {
					got++
				}
			}
			fmt.Printf("rank 0 mailbox deliveries: %d/%d\n", got, size-1)
			fmt.Printf("rank 0 counter after fence: %d\n", mpi.GetInt64(winBytes, 0))
		}

		// The last rank reads the counter back with one-sided Get.
		rb, rbb := comm.Alloc(8)
		if rank == size-1 {
			if err := win.Get(rb, 0, 0); err != nil {
				panic(err)
			}
		}
		if err := win.Fence(); err != nil {
			panic(err)
		}
		if rank == size-1 {
			fmt.Printf("rank %d Get of the counter: %d\n", rank, mpi.GetInt64(rbb, 0))
		}
	})
	// Output:
	// rank 0 mailbox deliveries: 3/3
	// rank 0 counter after fence: 3
	// rank 3 Get of the counter: 3
}

// A 2D Jacobi halo exchange on 8 ranks, the communication pattern the
// paper's introduction motivates, on the three transports of Figures 16
// and 17. Boundary rows really move every iteration, so the transports
// differ in simulated time only and the final fields hash alike.
func Example_haloExchange() {
	const nx, ny, iters = 512, 512, 50
	stencil := func(tr cluster.Transport) uint64 {
		const np = 8
		c := cluster.MustNew(cluster.Config{NP: np, Transport: tr})
		defer c.Close()
		var sum [np]uint64
		c.Launch(func(comm *mpi.Comm) {
			rank, size := comm.Rank(), comm.Size()
			rows := nx / size // row-block decomposition
			field := make([]float64, (rows+2)*ny)
			for i := 0; i < rows; i++ {
				for j := 0; j < ny; j++ {
					field[(i+1)*ny+j] = float64((rank*rows+i)*ny+j%97) * 0.001
				}
			}
			up, down := rank-1, rank+1
			topSend, topB := comm.Alloc(ny * 8)
			botSend, botB := comm.Alloc(ny * 8)
			topRecv, topRB := comm.Alloc(ny * 8)
			botRecv, botRB := comm.Alloc(ny * 8)
			for it := 0; it < iters; it++ {
				for j := 0; j < ny; j++ {
					mpi.PutFloat64(topB, j, field[1*ny+j])
					mpi.PutFloat64(botB, j, field[rows*ny+j])
				}
				var reqs []*mpi.Request
				if up >= 0 {
					reqs = append(reqs, comm.Irecv(topRecv, up, 1), comm.Isend(topSend, up, 2))
				}
				if down < size {
					reqs = append(reqs, comm.Irecv(botRecv, down, 2), comm.Isend(botSend, down, 1))
				}
				comm.WaitAll(reqs...)
				for j := 0; up >= 0 && j < ny; j++ {
					field[j] = mpi.GetFloat64(topRB, j)
				}
				for j := 0; down < size && j < ny; j++ {
					field[(rows+1)*ny+j] = mpi.GetFloat64(botRB, j)
				}
				// Jacobi sweep: a 5-point stencil, ~6 flops per point.
				next := make([]float64, len(field))
				copy(next, field)
				for i := 1; i <= rows; i++ {
					for j := 1; j < ny-1; j++ {
						next[i*ny+j] = 0.25 * (field[(i-1)*ny+j] + field[(i+1)*ny+j] +
							field[i*ny+j-1] + field[i*ny+j+1])
					}
				}
				field = next
				comm.Compute(float64(rows * ny * 6))
			}
			// FNV-1a over the local rows, folded across ranks below.
			var s uint64 = 1469598103934665603
			for _, v := range field[ny : (rows+1)*ny] {
				s ^= uint64(v * 1e6)
				s *= 1099511628211
			}
			sum[rank] = s
		})
		var total uint64
		for _, s := range sum {
			total ^= s
		}
		return total
	}
	for _, tr := range []cluster.Transport{
		cluster.TransportPipeline, cluster.TransportZeroCopy, cluster.TransportCH3,
	} {
		fmt.Printf("%s %016x\n", tr, stencil(tr))
	}
	// Output:
	// pipeline 110949a16d68d307
	// rdma-channel-zerocopy 110949a16d68d307
	// ch3-zerocopy 110949a16d68d307
}
