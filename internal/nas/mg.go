package nas

import "repro/internal/mpi"

// runMG is the MultiGrid benchmark: V-cycles over a hierarchy of 3D
// grids, each level exchanging ghost faces with up to six neighbours.
// Message sizes span from hundreds of kilobytes at the fine levels to a
// handful of bytes at the coarse ones, probing a transport across its
// whole size range in a single application.
func runMG(comm *mpi.Comm, class Class) (float64, bool) {
	var n, nit int
	switch class {
	case ClassS:
		n, nit = 32, 2
	case ClassA:
		n, nit = 256, 4
	case ClassB:
		n, nit = 256, 20
	}
	np, rank := comm.Size(), comm.Rank()
	px, py, pz := grid3(np)
	ix, iy, iz := rank%px, (rank/px)%py, rank/(px*py)

	levels := 0
	for g := n; g >= 4; g /= 2 {
		levels++
	}

	// Face buffers sized for the finest level.
	maxFace := (n/px + 2) * (n / py * 8)
	if f := (n/py + 2) * (n / pz * 8); f > maxFace {
		maxFace = f
	}
	if f := (n/px + 2) * (n / pz * 8); f > maxFace {
		maxFace = f
	}
	send, sendB := comm.Alloc(maxFace)
	recv, recvB := comm.Alloc(maxFace)
	fill(sendB, uint64(rank)*31+7)
	local := checksum(sendB)

	neighbor := func(dim, dir int) int {
		jx, jy, jz := ix, iy, iz
		switch dim {
		case 0:
			jx = (ix + dir + px) % px
		case 1:
			jy = (iy + dir + py) % py
		case 2:
			jz = (iz + dir + pz) % pz
		}
		return jx + jy*px + jz*px*py
	}

	exchange := func(level int) {
		g := n >> level
		lx, ly, lz := g/px, g/py, g/pz
		if lx < 1 {
			lx = 1
		}
		if ly < 1 {
			ly = 1
		}
		if lz < 1 {
			lz = 1
		}
		faces := [3]int{ly * lz * 8, lx * lz * 8, lx * ly * 8}
		dims := [3]int{px, py, pz}
		for d := 0; d < 3; d++ {
			if dims[d] == 1 {
				continue
			}
			for _, dir := range []int{+1, -1} {
				to := neighbor(d, dir)
				from := neighbor(d, -dir)
				fb := faces[d]
				comm.Sendrecv(mpi.Slice(send, 0, fb), to, 300+d*2+(dir+1)/2,
					mpi.Slice(recv, 0, fb), from, 300+d*2+(dir+1)/2)
				local ^= checksum(recvB[:fb])
			}
		}
	}

	var ops float64
	pts := float64(n) * float64(n) * float64(n)
	for it := 0; it < nit; it++ {
		// Down-sweep: restrict through the levels.
		for l := 0; l < levels; l++ {
			levelPts := pts / float64(np) / float64(uint64(1)<<(3*uint(l)))
			comm.Compute(levelPts * 15) // residual + restriction stencils
			exchange(l)
			ops += levelPts * 15 * float64(np)
		}
		// Up-sweep: interpolate back.
		for l := levels - 1; l >= 0; l-- {
			levelPts := pts / float64(np) / float64(uint64(1)<<(3*uint(l)))
			comm.Compute(levelPts * 12) // interpolation + smoothing
			exchange(l)
			ops += levelPts * 12 * float64(np)
		}
	}
	return ops, verifySum(comm, local)
}
