package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// railStats digs the per-rail endpoint counters out of rank's connection
// to peer (zero-copy / chunk transports only).
func railStats(t *testing.T, c *cluster.Cluster, rank, peer int) rdmachan.Stats {
	t.Helper()
	conn, ok := c.Ranks[rank].Endpoint(int32(peer)).(*ch3.Conn)
	if !ok {
		t.Fatalf("rank %d→%d endpoint is %T, want *ch3.Conn", rank, peer,
			c.Ranks[rank].Endpoint(int32(peer)))
	}
	return conn.Endpoint().Stats()
}

// transfer runs a ping of size bytes from rank 0 to rank 1 and returns
// the simulated microseconds from first send to delivery.
func transfer(t *testing.T, cfg cluster.Config, size, iters int) float64 {
	t.Helper()
	c := cluster.MustNew(cfg)
	defer c.Close()
	var elapsed float64
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(size)
		if comm.Rank() == 0 {
			for i := range b {
				b[i] = byte(i*13 + 7)
			}
			comm.Send(buf, 1, 0)  // warmup: first-touch registration
			comm.Recv(buf, 1, 99) // peer done with warmup
			start := comm.Wtime()
			for i := 0; i < iters; i++ {
				comm.Send(buf, 1, 0)
			}
			comm.Recv(buf, 1, 99)
			elapsed = (comm.Wtime() - start) * 1e6
		} else {
			comm.Recv(buf, 0, 0)
			comm.Send(buf, 0, 99)
			for i := 0; i < iters; i++ {
				comm.Recv(buf, 0, 0)
			}
			for i := range b {
				if b[i] != byte(i*13+7) {
					t.Errorf("corrupt byte %d", i)
					return
				}
			}
			comm.Send(buf, 0, 99)
		}
	})
	return elapsed
}

// TestRailStripingBandwidth is the acceptance gate of the multi-rail work:
// striping a large zero-copy transfer over two rails must deliver at
// least 1.8x the single-rail bandwidth, and four rails must saturate at
// the node's memory-controller ceiling rather than scale linearly.
func TestRailStripingBandwidth(t *testing.T) {
	const size = 1 << 20
	base := transfer(t, cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy}, size, 4)
	two := transfer(t, cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 2}, size, 4)
	four := transfer(t, cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 4}, size, 4)
	if ratio := base / two; ratio < 1.8 {
		t.Errorf("rails=2 speedup %.2fx, want >= 1.8x (1 rail %.1fµs, 2 rails %.1fµs)",
			ratio, base, two)
	}
	if four >= two {
		t.Errorf("rails=4 (%.1fµs) not faster than rails=2 (%.1fµs)", four, two)
	}
	if ratio := base / four; ratio > 3.0 {
		t.Errorf("rails=4 speedup %.2fx: memory-controller ceiling should cap well below linear", ratio)
	}
}

// TestRailPolicyRoundRobinCoversAllRails is the rail-policy property test:
// under the round-robin policy a stream of eager messages must put chunks
// on every rail, and a large zero-copy transfer must pull stripe bytes
// over every rail.
func TestRailPolicyRoundRobinCoversAllRails(t *testing.T) {
	for _, rails := range []int{2, 3, 4} {
		rails := rails
		t.Run(fmt.Sprintf("rails=%d", rails), func(t *testing.T) {
			c := cluster.MustNew(cluster.Config{
				NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: rails,
			})
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				small, _ := comm.Alloc(4 << 10)
				big, _ := comm.Alloc(256 << 10)
				for i := 0; i < 4*rails; i++ {
					if comm.Rank() == 0 {
						comm.Send(small, 1, 0)
					} else {
						comm.Recv(small, 0, 0)
					}
				}
				if comm.Rank() == 0 {
					comm.Send(big, 1, 1)
				} else {
					comm.Recv(big, 0, 1)
				}
			})
			sender := railStats(t, c, 0, 1)
			receiver := railStats(t, c, 1, 0)
			if len(sender.RailChunks) != rails {
				t.Fatalf("sender reports %d rails, want %d", len(sender.RailChunks), rails)
			}
			for k, n := range sender.RailChunks {
				if n == 0 {
					t.Errorf("round-robin left rail %d without eager chunks: %v", k, sender.RailChunks)
				}
			}
			for k, n := range receiver.RailZCBytes {
				if n == 0 {
					t.Errorf("zero-copy striping left rail %d idle: %v", k, receiver.RailZCBytes)
				}
			}
		})
	}
}

// TestRailPolicyFixed pins eager traffic to rail 0.
func TestRailPolicyFixed(t *testing.T) {
	cfg := cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 3}
	cfg.Chan.RailPolicy = rdmachan.RailFixed
	cfg.Chan.StripeThreshold = -1 // keep zero-copy off the other rails too
	c := cluster.MustNew(cfg)
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(8 << 10)
		for i := 0; i < 6; i++ {
			if comm.Rank() == 0 {
				comm.Send(buf, 1, 0)
			} else {
				comm.Recv(buf, 0, 0)
			}
		}
	})
	s := railStats(t, c, 0, 1)
	for k, n := range s.RailChunks {
		if k == 0 && n == 0 {
			t.Errorf("fixed rail 0 carried nothing: %v", s.RailChunks)
		}
		if k != 0 && n != 0 {
			t.Errorf("fixed policy leaked %d chunks onto rail %d: %v", n, k, s.RailChunks)
		}
	}
}

// TestRailPolicyWeighted just exercises the weighted policy end to end:
// traffic still flows and checksums hold.
func TestRailPolicyWeighted(t *testing.T) {
	cfg := cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 2}
	cfg.Chan.RailPolicy = rdmachan.RailWeighted
	c := cluster.MustNew(cfg)
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(128 << 10)
		if comm.Rank() == 0 {
			for i := range b {
				b[i] = byte(i)
			}
			comm.Send(buf, 1, 0)
		} else {
			comm.Recv(buf, 0, 0)
			for i := range b {
				if b[i] != byte(i) {
					t.Errorf("weighted policy corrupted byte %d", i)
					return
				}
			}
		}
	})
}

// TestRailsComposeWithLazyAndSRQ runs the two connection-management modes
// under multi-rail and checks traffic completes with correct contents.
func TestRailsComposeWithLazyAndSRQ(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() cluster.Config
	}{
		{"lazy", func() cluster.Config {
			return cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy,
				RailsPerNode: 2, ConnectMode: cluster.ConnectLazy}
		}},
		{"srq", func() cluster.Config {
			cfg := cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy, RailsPerNode: 2}
			cfg.Chan.UseSRQ = true
			return cfg
		}},
		{"srq-lazy", func() cluster.Config {
			cfg := cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy,
				RailsPerNode: 2, ConnectMode: cluster.ConnectLazy}
			cfg.Chan.UseSRQ = true
			return cfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.MustNew(tc.cfg())
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				const size = 96 << 10
				buf, b := comm.Alloc(size)
				rbuf, rb := comm.Alloc(size)
				for i := range b {
					b[i] = byte(i*31 + comm.Rank())
				}
				next := (comm.Rank() + 1) % comm.Size()
				prev := (comm.Rank() + comm.Size() - 1) % comm.Size()
				comm.Sendrecv(buf, next, 5, rbuf, prev, 5)
				for i := range rb {
					if rb[i] != byte(i*31+prev) {
						t.Errorf("%s: rank %d corrupt byte %d from %d", tc.name, comm.Rank(), i, prev)
						return
					}
				}
			})
		})
	}
}

// TestCH3MultiRailRendezvous covers the direct CH3 design's striped
// rendezvous — the RDMA-write twin of the zero-copy striping — including
// the single-stripe-on-multi-rail case, where the FIN must wait for the
// payload write's completion because the eager pipe rail-picks its
// chunks and a FIN on another rail would overtake the data.
func TestCH3MultiRailRendezvous(t *testing.T) {
	cases := []struct {
		name    string
		rails   int
		stripeT int
	}{
		{"rails2-striped", 2, 0},
		{"rails4-striped", 4, 0},
		{"rails2-no-striping", 2, -1},
		{"rails2-threshold-above", 2, 1 << 20},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := cluster.Config{NP: 2, Transport: cluster.TransportCH3, RailsPerNode: tc.rails}
			cfg.Chan.StripeThreshold = tc.stripeT
			c := cluster.MustNew(cfg)
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				const size = 256 << 10
				peer := 1 - comm.Rank()
				sbuf, sb := comm.Alloc(size)
				rbuf, rb := comm.Alloc(size)
				for i := range sb {
					sb[i] = byte(i*5 + comm.Rank())
				}
				for iter := 0; iter < 2; iter++ {
					comm.Sendrecv(sbuf, peer, 3, rbuf, peer, 3)
					for i := range rb {
						if rb[i] != byte(i*5+peer) {
							t.Errorf("%s iter %d: corrupt byte %d", tc.name, iter, i)
							return
						}
					}
				}
			})
		})
	}
}

// TestBasicDesignRejectsRails documents the single-rail constraint of the
// basic design.
func TestBasicDesignRejectsRails(t *testing.T) {
	_, err := cluster.New(cluster.Config{NP: 2, Transport: cluster.TransportBasic, RailsPerNode: 2})
	if err == nil {
		t.Fatal("basic design accepted RailsPerNode=2")
	}
}

// TestStripingCompletionCounter stresses the striping completion counter
// with concurrent bidirectional large transfers (both directions stripe at
// once over the same rails); run under -race in CI.
func TestStripingCompletionCounter(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy, RailsPerNode: 4})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		const size = 512 << 10
		peer := 1 - comm.Rank()
		sbuf, sb := comm.Alloc(size)
		rbuf, rb := comm.Alloc(size)
		for i := range sb {
			sb[i] = byte(i*7 + comm.Rank())
		}
		for iter := 0; iter < 3; iter++ {
			comm.Sendrecv(sbuf, peer, 9, rbuf, peer, 9)
			for i := range rb {
				if rb[i] != byte(i*7+peer) {
					t.Errorf("iter %d: corrupt byte %d", iter, i)
					return
				}
			}
		}
	})
}
