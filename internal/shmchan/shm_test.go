package shmchan_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/shmchan"
)

// shmPair builds a 2-rank single-node cluster: the only connection is the
// shared-memory channel.
func shmPair(shm shmchan.Config) *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		NP:           2,
		CoresPerNode: 2,
		Transport:    cluster.TransportZeroCopy,
		Shm:          shm,
	})
}

func TestIntraNodeSendRecv(t *testing.T) {
	// Sizes straddling the eager cutoff (8 KB default), chunk boundaries
	// (32 KB default) and non-multiples of both.
	sizes := []int{0, 1, 4, 1024, 8 << 10, 8<<10 + 1, 32 << 10, 100000, 1 << 20}
	for _, size := range sizes {
		c := shmPair(shmchan.Config{})
		ok := false
		c.Launch(func(comm *mpi.Comm) {
			buf, b := comm.Alloc(size + 1)
			switch comm.Rank() {
			case 0:
				for i := 0; i < size; i++ {
					b[i] = byte(i*31 + 5)
				}
				comm.Send(mpi.Slice(buf, 0, size), 1, 7)
			case 1:
				st := comm.Recv(mpi.Slice(buf, 0, size), 0, 7)
				if st.Source != 0 || st.Tag != 7 || st.Len != size {
					t.Errorf("size %d: status = %+v", size, st)
					return
				}
				for i := 0; i < size; i++ {
					if b[i] != byte(i*31+5) {
						t.Errorf("size %d: corrupt at %d", size, i)
						return
					}
				}
				ok = true
			}
		})
		c.Close()
		if !ok {
			t.Fatalf("size %d: receive did not complete", size)
		}
	}
}

func TestIntraNodeOrderingMixedSizes(t *testing.T) {
	// Eager and large messages interleaved on one pair must arrive in send
	// order: the large path's ring descriptor keeps the FIFO intact.
	sizes := []int{16, 64 << 10, 4, 9 << 10, 100, 128 << 10, 0, 1 << 10}
	c := shmPair(shmchan.Config{})
	defer c.Close()
	ok := false
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() == 0 {
			for i, size := range sizes {
				buf, b := comm.Alloc(size + 1)
				for j := 0; j < size; j++ {
					b[j] = byte(i + j)
				}
				comm.Send(mpi.Slice(buf, 0, size), 1, i)
			}
			return
		}
		for i, size := range sizes {
			buf, b := comm.Alloc(size + 1)
			// AnyTag: ordering must come from the channel, not matching.
			st := comm.Recv(mpi.Slice(buf, 0, size), 0, mpi.AnyTag)
			if st.Tag != int32(i) {
				t.Errorf("message %d arrived with tag %d: order broken", i, st.Tag)
				return
			}
			for j := 0; j < size; j++ {
				if b[j] != byte(i+j) {
					t.Errorf("message %d corrupt at %d", i, j)
					return
				}
			}
		}
		ok = true
	})
	if !ok {
		t.Fatal("receiver did not complete")
	}
}

func TestIntraNodeUnexpectedMessages(t *testing.T) {
	// Sends complete into the unexpected queue before any receive posts;
	// late receives must still see data and order.
	c := shmPair(shmchan.Config{})
	defer c.Close()
	ok := false
	c.Launch(func(comm *mpi.Comm) {
		const n = 6
		if comm.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf, b := comm.Alloc(256)
				b[0] = byte(i)
				comm.Send(buf, 1, i)
			}
			return
		}
		// Let all sends land unexpectedly first.
		comm.Compute(1e6)
		for i := n - 1; i >= 0; i-- { // post in reverse tag order
			buf, b := comm.Alloc(256)
			comm.Recv(buf, 0, i)
			if b[0] != byte(i) {
				t.Errorf("tag %d: got payload %d", i, b[0])
				return
			}
		}
		ok = true
	})
	if !ok {
		t.Fatal("receiver did not complete")
	}
}

func TestTinyRingBackpressure(t *testing.T) {
	// The receiver starts late, so the sender stalls on a full ring and
	// resumes repeatedly: 32 one-cell messages wrap the 16-cell ring twice,
	// then 32 three-chunk messages wrap the 8 segment slots twelve times.
	// Everything must still arrive intact.
	c := shmPair(shmchan.Config{})
	defer c.Close()
	ok := false
	const count, large = 64, 3 * shmchan.SegChunk
	size := func(i int) int {
		if i < count/2 {
			return shmchan.EagerMax
		}
		return large
	}
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(large)
		if comm.Rank() == 0 {
			for i := 0; i < count; i++ {
				for j := range b[:size(i)] {
					b[j] = byte(i ^ j)
				}
				comm.Send(mpi.Slice(buf, 0, size(i)), 1, i)
			}
			return
		}
		comm.Compute(1e5)
		for i := 0; i < count; i++ {
			comm.Recv(mpi.Slice(buf, 0, size(i)), 0, i)
			for j := range b[:size(i)] {
				if b[j] != byte(i^j) {
					t.Errorf("message %d corrupt at %d", i, j)
					return
				}
			}
		}
		ok = true
	})
	if !ok {
		t.Fatal("receiver did not complete")
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	// The figure-3 claim in miniature: a small-message ping-pong between
	// co-located ranks beats the same exchange over InfiniBand.
	lat := func(cpn int) float64 {
		o := bench.Options{Config: cluster.Config{CoresPerNode: cpn, Transport: cluster.TransportZeroCopy}}
		return bench.MPILatency(o, []int{4}, 10).Points[0].Value
	}
	intra, inter := lat(2), lat(1)
	if intra <= 0 || inter <= 0 {
		t.Fatalf("degenerate latencies: intra=%.2f inter=%.2f", intra, inter)
	}
	if intra >= inter {
		t.Errorf("intra-node latency %.2f µs not below inter-node %.2f µs", intra, inter)
	}
	if intra > 3.0 {
		t.Errorf("intra-node small-message latency %.2f µs implausibly high", intra)
	}
}

func TestStatsCountPaths(t *testing.T) {
	c := shmPair(shmchan.Config{})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		small, _ := comm.Alloc(64)
		big, _ := comm.Alloc(64 << 10)
		if comm.Rank() == 0 {
			comm.Send(small, 1, 0)
			comm.Send(big, 1, 1)
		} else {
			comm.Recv(small, 0, 0)
			comm.Recv(big, 0, 1)
		}
	})
	conn, ok := c.Ranks[0].Endpoint(1).(*shmchan.Conn)
	if !ok {
		t.Fatalf("co-located connection is %T, want *shmchan.Conn", c.Ranks[0].Endpoint(1))
	}
	st := conn.Stats()
	if st.EagerSends != 1 || st.LargeSends != 1 {
		t.Errorf("stats = %+v, want 1 eager + 1 large", st)
	}
	if st.BytesSent != 64+64<<10 {
		t.Errorf("BytesSent = %d", st.BytesSent)
	}
}

func TestShmRendezvousDelivers(t *testing.T) {
	// With a rendezvous threshold set, messages at or above it take the
	// single-copy path: content intact, counted as RndvSends, and the pair's
	// registration cache sees the pinned buffers (hit on reuse).
	const th = 32 << 10
	sizes := []int{th, th + 1, 256 << 10, 1 << 20}
	for _, size := range sizes {
		c := shmPair(shmchan.Config{RndvThreshold: th})
		ok := false
		c.Launch(func(comm *mpi.Comm) {
			buf, b := comm.Alloc(size)
			switch comm.Rank() {
			case 0:
				for i := range b {
					b[i] = byte(i*13 + 1)
				}
				comm.Send(buf, 1, 3)
				comm.Send(buf, 1, 4) // reuse: second rendezvous hits the cache
			case 1:
				st := comm.Recv(buf, 0, 3)
				if st.Source != 0 || st.Tag != 3 || st.Len != size {
					t.Errorf("size %d: status = %+v", size, st)
					return
				}
				comm.Recv(buf, 0, 4)
				for i := range b {
					if b[i] != byte(i*13+1) {
						t.Errorf("size %d: corrupt at %d", size, i)
						return
					}
				}
				ok = true
			}
		})
		conn := c.Ranks[0].Endpoint(1).(*shmchan.Conn)
		if st := conn.Stats(); st.RndvSends != 2 || st.LargeSends != 0 {
			t.Errorf("size %d: stats = %+v, want 2 rendezvous sends", size, st)
		}
		if cs := conn.RegCache().Stats(); cs.Hits == 0 || cs.Misses == 0 {
			t.Errorf("size %d: regcache stats = %+v, want misses then hits on reuse", size, cs)
		}
		c.Close()
		if !ok {
			t.Fatalf("size %d: receive did not complete", size)
		}
	}
}

func TestShmRendezvousUnexpectedAndWildcard(t *testing.T) {
	// An RTS landing before the receive posts must wait without moving the
	// payload, then resolve when a wildcard receive posts — on the right
	// endpoint, with the right source.
	const th, size = 16 << 10, 64 << 10
	c := shmPair(shmchan.Config{RndvThreshold: th})
	defer c.Close()
	ok := false
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(size)
		if comm.Rank() == 0 {
			for i := range b {
				b[i] = byte(i ^ 0x5a)
			}
			comm.Send(buf, 1, 9)
			return
		}
		comm.Compute(1e6) // let the RTS land unexpectedly
		st := comm.Recv(buf, mpi.AnySource, mpi.AnyTag)
		if st.Source != 0 || st.Tag != 9 || st.Len != size {
			t.Errorf("status = %+v", st)
			return
		}
		for i := range b {
			if b[i] != byte(i^0x5a) {
				t.Errorf("corrupt at %d", i)
				return
			}
		}
		ok = true
	})
	if !ok {
		t.Fatal("receiver did not complete")
	}
}

func TestShmRendezvousOrderingWithEager(t *testing.T) {
	// Rendezvous descriptors ride the same ring as eager cells, so matching
	// order across the threshold is preserved.
	const th = 8 << 10
	sizes := []int{64, 32 << 10, 128, 16 << 10, 0, 64 << 10}
	c := shmPair(shmchan.Config{RndvThreshold: th})
	defer c.Close()
	ok := false
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() == 0 {
			for i, size := range sizes {
				buf, b := comm.Alloc(size + 1)
				for j := 0; j < size; j++ {
					b[j] = byte(i + 2*j)
				}
				comm.Send(mpi.Slice(buf, 0, size), 1, i)
			}
			return
		}
		for i, size := range sizes {
			buf, b := comm.Alloc(size + 1)
			st := comm.Recv(mpi.Slice(buf, 0, size), 0, mpi.AnyTag)
			if st.Tag != int32(i) {
				t.Errorf("message %d arrived with tag %d: order broken", i, st.Tag)
				return
			}
			for j := 0; j < size; j++ {
				if b[j] != byte(i+2*j) {
					t.Errorf("message %d corrupt at %d", i, j)
					return
				}
			}
		}
		ok = true
	})
	if !ok {
		t.Fatal("receiver did not complete")
	}
}
