package nas

import "repro/internal/mpi"

// runLU is the LU (SSOR) benchmark: a 2D decomposition of the x–y plane
// where each relaxation sweep propagates a wavefront plane by plane —
// rank (i,j) cannot start plane k before receiving the k-th pencils from
// its north and west neighbours. The dependence structure emerges from
// real blocking receives, and the traffic is thousands of small pencil
// messages: LU is the latency test of the suite.
func runLU(comm *mpi.Comm, class Class) (float64, bool) {
	var n, niter int
	switch class {
	case ClassS:
		n, niter = 16, 5
	case ClassA:
		n, niter = 64, 50
	case ClassB:
		n, niter = 102, 50
	}
	// NPB runs 250 SSOR iterations; the skeleton runs 50 and scales the
	// reported operation count — the per-iteration traffic is identical
	// and 50 iterations are far past steady state. (Documented in
	// DESIGN.md; keeps the three-transport sweep tractable.)
	const iterScale = 5.0

	np, rank := comm.Size(), comm.Rank()
	rows, cols := grid2(np)
	myRow, myCol := rank/cols, rank%cols
	north := rank - cols // -row direction
	south := rank + cols
	west := rank - 1
	east := rank + 1

	lx, ly := n/cols, n/rows
	pencil := ly * 5 * 8 // 5 solution components per point
	if pencilX := lx * 5 * 8; pencilX > pencil {
		pencil = pencilX
	}
	sendN, sendNB := comm.Alloc(pencil)
	sendW, _ := comm.Alloc(pencil)
	recvBuf, recvB := comm.Alloc(pencil)
	fill(sendNB, uint64(rank)*13+1)
	local := checksum(sendNB)

	// Per-plane compute: the lower/upper triangular solves touch each
	// local point with ~100 flops (5x5 block operations).
	planePts := float64(lx * ly)
	planeFlops := planePts * 100

	sweep := func(forward bool, tag int) {
		for k := 0; k < n; k++ {
			if forward {
				if myRow > 0 {
					comm.Recv(mpi.Slice(recvBuf, 0, lx*5*8), north, tag)
					local ^= checksum(recvB[:lx*5*8])
				}
				if myCol > 0 {
					comm.Recv(mpi.Slice(recvBuf, 0, ly*5*8), west, tag)
					local ^= checksum(recvB[:ly*5*8])
				}
				comm.Compute(planeFlops)
				if myRow < rows-1 {
					comm.Send(mpi.Slice(sendN, 0, lx*5*8), south, tag)
				}
				if myCol < cols-1 {
					comm.Send(mpi.Slice(sendW, 0, ly*5*8), east, tag)
				}
			} else {
				if myRow < rows-1 {
					comm.Recv(mpi.Slice(recvBuf, 0, lx*5*8), south, tag)
					local ^= checksum(recvB[:lx*5*8])
				}
				if myCol < cols-1 {
					comm.Recv(mpi.Slice(recvBuf, 0, ly*5*8), east, tag)
					local ^= checksum(recvB[:ly*5*8])
				}
				comm.Compute(planeFlops)
				if myRow > 0 {
					comm.Send(mpi.Slice(sendN, 0, lx*5*8), north, tag)
				}
				if myCol > 0 {
					comm.Send(mpi.Slice(sendW, 0, ly*5*8), west, tag)
				}
			}
		}
	}

	// Halo exchange for the right-hand side: full boundary faces (local
	// extent × nz planes, 5 components).
	haloX := ly * n * 5
	haloY := lx * n * 5
	haloSend, _ := comm.Alloc(max(haloX, haloY))
	haloRecv, haloRecvB := comm.Alloc(max(haloX, haloY))

	exchange3 := func(tag int) {
		if cols > 1 {
			to, from := east, west
			if myCol == cols-1 {
				to = rank - (cols - 1)
			}
			if myCol == 0 {
				from = rank + (cols - 1)
			}
			comm.Sendrecv(mpi.Slice(haloSend, 0, haloX), to, tag,
				mpi.Slice(haloRecv, 0, haloX), from, tag)
			local ^= checksum(haloRecvB[:haloX])
		}
		if rows > 1 {
			to, from := south, north
			if myRow == rows-1 {
				to = myCol
			}
			if myRow == 0 {
				from = (rows-1)*cols + myCol
			}
			comm.Sendrecv(mpi.Slice(haloSend, 0, haloY), to, tag+1,
				mpi.Slice(haloRecv, 0, haloY), from, tag+1)
			local ^= checksum(haloRecvB[:haloY])
		}
	}

	var ops float64
	scalS, scalSb := comm.Alloc(40)
	scalR, _ := comm.Alloc(40)
	for it := 0; it < niter; it++ {
		// RHS with halo exchange, then the two triangular sweeps.
		comm.Compute(planePts * float64(n) * 40)
		exchange3(400)
		sweep(true, 410)
		sweep(false, 420)
		ops += (planePts*float64(n)*40 + 2*planeFlops*float64(n)) * float64(np)
		// Residual norms every few iterations.
		if it%5 == 0 {
			mpi.PutFloat64(scalSb, 0, float64(it))
			comm.Allreduce(scalS, scalR, mpi.Float64, mpi.Sum)
		}
	}
	return ops * iterScale, verifySum(comm, local)
}
