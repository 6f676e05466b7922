package cluster_test

// Large-scale lazy-connection smoke (DESIGN.md §9, the acceptance test of
// the connection-management refactor): NAS CG and a stencil halo exchange
// at np=256 under lazy/SRQ connection management, asserting checksum
// verification, connection counts far below the np² mesh, and per-process
// eager memory bounded by the SRQ pool.

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/scenario"
)

const largeNP = 256

func lazyLargeConfig(np int) cluster.Config {
	return scenario.LazySRQ.On(cluster.Config{NP: np})
}

// srqPoolBytes is the per-process eager buffering of the default SRQ pool
// (receive slots + send staging), the bound every rank must stay within.
func srqPoolBytes() int64 {
	return int64((32 + 16) * (8 << 10))
}

// TestLazyLargeScale runs NAS CG class S on 256 ranks under lazy/SRQ
// connection management: the checksum must verify, and CG's row
// butterflies, transpose pairs and reduction trees must establish far
// fewer connections than the np² mesh eager mode would wire.
func TestLazyLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("np=256 smoke skipped in -short mode")
	}
	c := cluster.MustNew(lazyLargeConfig(largeNP))
	defer c.Close()
	res := nas.RunOn(c, "cg", nas.ClassS)
	if !res.Verified {
		t.Fatalf("cg.S np=%d failed checksum verification under lazy connections", largeNP)
	}
	ms := c.MemStats()
	pairs := ms.Connections / 2
	mesh := largeNP * (largeNP - 1) / 2
	// CG touches O(np·log np) partners; "≪ np²" here means under a tenth
	// of the mesh (measured: ~2.4k pairs vs 32640).
	if pairs >= mesh/10 {
		t.Errorf("CG established %d pairs; want ≪ the %d-pair mesh", pairs, mesh)
	}
	for r := 0; r < largeNP; r++ {
		if eb := c.RankMemStats(r).EagerBytes; eb != srqPoolBytes() {
			t.Fatalf("rank %d eager bytes %d exceed the SRQ pool bound %d", r, eb, srqPoolBytes())
		}
	}
	t.Logf("cg.S np=%d lazy/srq: %d pairs (mesh would be %d), %d KB/process eager",
		largeNP, pairs, mesh, srqPoolBytes()/1024)
}

// stencilChecksum runs a compact version of internal/mpi's
// Example_haloExchange — a 1D halo exchange over a 2D field with per-rank
// checksums — on the given cluster and returns the global field checksum.
func stencilChecksum(c *cluster.Cluster, np int) uint64 {
	const ny, iters = 64, 3
	sums := make([]uint64, np)
	c.Launch(func(comm *mpi.Comm) {
		rank, size := comm.Rank(), comm.Size()
		const rows = 2
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
			if up >= 0 {
				for j := 0; j < ny; j++ {
					field[j] = mpi.GetFloat64(topRB, j)
				}
			}
			if down < size {
				for j := 0; j < ny; j++ {
					field[(rows+1)*ny+j] = mpi.GetFloat64(botRB, j)
				}
			}
			next := make([]float64, len(field))
			copy(next, field)
			for i := 1; i <= rows; i++ {
				for j := 1; j < ny-1; j++ {
					next[i*ny+j] = 0.25 * (field[(i-1)*ny+j] + field[(i+1)*ny+j] +
						field[i*ny+j-1] + field[i*ny+j+1])
				}
			}
			field = next
		}
		var s uint64 = 1469598103934665603
		for _, v := range field[ny : (rows+1)*ny] {
			s ^= uint64(v * 1e6)
			s *= 1099511628211
		}
		sums[rank] = s
	})
	var total uint64
	for _, s := range sums {
		total ^= s
	}
	return total
}

// TestLazyStencilLargeScale runs the stencil halo pattern at np=256 under
// lazy/SRQ connections: the nearest-neighbor pattern must establish O(np)
// connections with pool-bounded memory, and the field checksum must match
// the eager run of the identical problem at a size the mesh can afford.
func TestLazyStencilLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("np=256 smoke skipped in -short mode")
	}
	// Bit-equality against eager at a mesh-affordable size.
	const smallNP = 16
	eager := cluster.MustNew(cluster.Config{NP: smallNP, Transport: cluster.TransportZeroCopy})
	eagerSum := stencilChecksum(eager, smallNP)
	eager.Close()
	lazy := cluster.MustNew(lazyLargeConfig(smallNP))
	lazySum := stencilChecksum(lazy, smallNP)
	lazy.Close()
	if eagerSum != lazySum {
		t.Fatalf("np=%d stencil checksum: eager %#x vs lazy %#x", smallNP, eagerSum, lazySum)
	}

	c := cluster.MustNew(lazyLargeConfig(largeNP))
	defer c.Close()
	if sum := stencilChecksum(c, largeNP); sum == 0 {
		t.Fatal("np=256 stencil produced a zero checksum")
	}
	ms := c.MemStats()
	pairs := ms.Connections / 2
	// Nearest-neighbor: exactly np-1 pairs — O(np), not O(np²).
	if pairs != largeNP-1 {
		t.Errorf("halo exchange established %d pairs, want %d", pairs, largeNP-1)
	}
	for r := 0; r < largeNP; r++ {
		if eb := c.RankMemStats(r).EagerBytes; eb != srqPoolBytes() {
			t.Fatalf("rank %d eager bytes %d exceed the SRQ pool bound %d", r, eb, srqPoolBytes())
		}
	}
}

// TestEagerMeshBacksWhatTrafficReaches is the deterministic guard behind
// the live-heap figure of the eager mesh: every connection registers and
// reports its full chunk ring and staging mirror, but after a 1 KB ring
// exchange on np=32 the host backs 297 984 bytes of the 260 046 848
// registered, every other allocation of every node included; the bound is
// that figure, so a region that backs one line more fails here.
func TestEagerMeshBacksWhatTrafficReaches(t *testing.T) {
	const np = 32
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		send, _ := comm.Alloc(1024)
		recv, _ := comm.Alloc(1024)
		r := comm.Rank()
		comm.Sendrecv(send, (r+1)%np, 0, recv, (r+np-1)%np, 0)
	})
	ms := c.MemStats()
	if want := int64(np * (np - 1) * 2 * (128 << 10)); ms.EagerBytes != want {
		t.Fatalf("the mesh reports %d eager bytes, want %d", ms.EagerBytes, want)
	}
	backed := 0
	for _, n := range c.Nodes {
		backed += n.Mem.BackedTotal()
	}
	t.Logf("%d host bytes back %d registered eager bytes", backed, ms.EagerBytes)
	if backed > 297984 {
		t.Errorf("the nodes back %d host bytes, more than 297984", backed)
	}
}

// maxLaunchBytesPerRank bounds what an empty Launch allocates per rank. A
// rank's world handle points into the tables the cluster built once
// (mpi.World), so what remains is the handle, the process and its name:
// about 1.2 KB at every size. Each rank built its own np-entry group,
// translation and placement tables while this read 8 151 B at np=64 and
// 114 230 B at np=1024.
const maxLaunchBytesPerRank = 2048

// TestLaunchAllocatesIndependentOfNP measures the bytes allocated per rank
// across a second, empty Launch of a lazy + SRQ cluster (the first one
// warms what a cluster builds once) at np=64 and np=1024: both must stay
// under maxLaunchBytesPerRank.
func TestLaunchAllocatesIndependentOfNP(t *testing.T) {
	for _, np := range []int{64, 1024} {
		c := cluster.MustNew(lazyLargeConfig(np))
		c.Launch(func(*mpi.Comm) {})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Launch(func(*mpi.Comm) {})
		runtime.ReadMemStats(&after)
		c.Close()
		per := (after.TotalAlloc - before.TotalAlloc) / uint64(np)
		t.Logf("np=%d: an empty Launch allocates %d B per rank", np, per)
		if per > maxLaunchBytesPerRank {
			t.Errorf("np=%d: an empty Launch allocates %d B per rank, more than %d", np, per, maxLaunchBytesPerRank)
		}
	}
}
