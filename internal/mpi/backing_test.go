package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

// backingStacks are the stacks the scratch-backing pins run on.
var backingStacks = []scenario.Variant{{Name: "eager", Apply: scenario.ZeroCopy.Apply}, scenario.LazySRQ}

// backedTotal is the host memory c's nodes back.
func backedTotal(c *cluster.Cluster) (n int) {
	for _, node := range c.Nodes {
		n += node.Mem.BackedTotal()
	}
	return n
}

// TestSplitBacksWhatItHolds: Split's O(np) scratch — the gathered table,
// the triple and, off powers of two, Bruck's temporary — holds host memory
// only while Split runs. Each Launch hands the ranks a fresh world
// communicator, so its Split allocates that scratch anew. Eight launches
// of the same Split first bring every ring, staging mirror and pool slot
// its traffic reaches to their working set (the eager mesh's grows for at
// most four, while credits are outstanding); after that, a Launch of it
// must leave the nodes' BackedTotal where it was, on the
// recursive-doubling (np 8) and Bruck (np 6) allgathers, over the flat
// eager mesh and over lazy connections with SRQ.
func TestSplitBacksWhatItHolds(t *testing.T) {
	for _, st := range backingStacks {
		for _, np := range []int{8, 6} {
			t.Run(fmt.Sprintf("%s/np%d", st.Name, np), func(t *testing.T) {
				c := cluster.MustNew(st.On(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy}))
				defer c.Close()
				split := func(comm *mpi.Comm) {
					r := comm.Rank()
					color := r % 2
					if r == np-1 {
						color = -1 // opts out, still gathers
					}
					if sub := comm.Split(color, -r); (sub == nil) != (color < 0) {
						t.Errorf("rank %d: Split returned %v for color %d", r, sub, color)
					}
				}
				for i := 0; i < 8; i++ {
					c.Launch(split)
				}
				before := backedTotal(c)
				c.Launch(split)
				if after := backedTotal(c); after != before {
					t.Errorf("the nodes back %d host bytes after Split, %d before it", after, before)
				}
			})
		}
	}
}

// TestDupBacksWhatItHolds: Dup agrees on its context pair through
// Split's two scratch slots and drops their backing before it returns,
// so past the first Dup on a communicator ten more allocate nothing, and
// a Launch of eleven Dups leaves the nodes backing what a Launch of one
// leaves (each Launch's fresh world communicator backs its own Allreduce
// scratch). Eight launches first bring the rings to their working set.
func TestDupBacksWhatItHolds(t *testing.T) {
	for _, st := range backingStacks {
		t.Run(st.Name, func(t *testing.T) {
			c := cluster.MustNew(st.On(cluster.Config{NP: 6, Transport: cluster.TransportZeroCopy}))
			defer c.Close()
			dups := func(n int) int {
				before := backedTotal(c)
				c.Launch(func(comm *mpi.Comm) {
					comm.Dup()
					allocs := comm.Allocs()
					for i := 1; i < n; i++ {
						comm.Dup()
					}
					if got := comm.Allocs(); got != allocs {
						t.Errorf("rank %d: %d Dups past the first allocated %d times", comm.Rank(), n-1, got-allocs)
					}
				})
				return backedTotal(c) - before
			}
			for i := 0; i < 8; i++ {
				dups(11)
			}
			if one, eleven := dups(1), dups(11); one != eleven {
				t.Errorf("a Launch of one Dup backs %d more host bytes, of eleven %d more", one, eleven)
			}
		})
	}
}

// TestGrownScratchBacksWhatItHolds: a scratch slot that grows moves
// to a new region and drops the old one's backing, so after an allreduce at
// 256 B, then 4 KB, then 64 KB the communicator's scratch backs only the
// 64 KB slots; the outgrown regions stay mapped, backing nothing.
func TestGrownScratchBacksWhatItHolds(t *testing.T) {
	const np = 4
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		mem := c.Nodes[c.NodeOf(comm.Rank())].Mem
		seen := map[uint64]bool{}
		var last []mpi.Buffer
		for _, n := range []int{256, 4 << 10, 64 << 10} {
			send, _ := comm.Alloc(n)
			recv, _ := comm.Alloc(n)
			comm.Allreduce(send, recv, mpi.Byte, mpi.Sum)
			last = mpi.ScratchBuffers(comm)
			for _, b := range last {
				seen[b.Addr] = true
			}
		}
		held := map[uint64]bool{}
		for _, b := range last {
			held[b.Addr] = true
			if got := mem.Backed(b.Addr); got != b.Len {
				t.Errorf("rank %d: a %d-byte scratch slot backs %d bytes", comm.Rank(), b.Len, got)
			}
		}
		for va := range seen {
			if got := mem.Backed(va); !held[va] && got != 0 {
				t.Errorf("rank %d: an outgrown scratch region at %#x still backs %d bytes", comm.Rank(), va, got)
			}
		}
		if len(seen) == len(last) {
			t.Errorf("rank %d: no scratch slot grew; the sizes do not exercise growth", comm.Rank())
		}
	})
}

// TestFreeBacksWhatItHolds: a communicator from Split backs its
// collective scratch until Free (MPI_Comm_free) drops it. After a 64 KB
// Allreduce on each half of the world, every rank's half backs at least
// 128 KB of scratch in full; Free leaves each slot backing nothing and
// still mapped at its address.
func TestFreeBacksWhatItHolds(t *testing.T) {
	const np, n = 4, 64 << 10
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		half := comm.Split(comm.Rank()%2, comm.Rank())
		send, _ := comm.Alloc(n)
		recv, _ := comm.Alloc(n)
		half.Allreduce(send, recv, mpi.Byte, mpi.Sum)
		mem := c.Nodes[c.NodeOf(comm.Rank())].Mem
		scr, held := mpi.ScratchBuffers(half), 0
		for _, b := range scr {
			if got := mem.Backed(b.Addr); got != b.Len {
				t.Errorf("rank %d: a %d-byte scratch slot backs %d bytes before Free", comm.Rank(), b.Len, got)
			}
			held += b.Len
		}
		if held < 2*n {
			t.Errorf("rank %d: the half backs %d bytes of scratch, want at least %d", comm.Rank(), held, 2*n)
		}
		half.Free()
		for _, b := range scr {
			if got := mem.Backed(b.Addr); got != 0 {
				t.Errorf("rank %d: freed scratch at %#x backs %d bytes", comm.Rank(), b.Addr, got)
			}
			if err := mem.Check(b.Addr, b.Len); err != nil {
				t.Errorf("rank %d: freed scratch at %#x unmapped: %v", comm.Rank(), b.Addr, err)
			}
		}
	})
}
