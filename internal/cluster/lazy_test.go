package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/scenario"
	"repro/internal/shmchan"
	"repro/internal/transport"
)

// lazyConfigs are the connection-management variants under test: lazy
// establishment over the chunk-ring transport, lazy establishment over
// the SRQ-backed eager mode, and the SRQ mode fully wired at startup.
func lazyConfigs(np int) map[string]cluster.Config {
	return map[string]cluster.Config{
		"lazy-ring": scenario.Lazy.On(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy}),
		"lazy-srq":  scenario.LazySRQ.On(cluster.Config{NP: np}),
		"eager-srq": {NP: np, Transport: cluster.TransportZeroCopy,
			Chan: rdmachan.Config{UseSRQ: true}},
	}
}

// TestLazyPointToPoint drives a ring of sends under lazy establishment
// and checks both payload integrity and that only the ring's connections
// were established.
func TestLazyPointToPoint(t *testing.T) {
	const np = 6
	for name, cfg := range lazyConfigs(np) {
		t.Run(name, func(t *testing.T) {
			c := cluster.MustNew(cfg)
			defer c.Close()
			ok := make([]bool, np)
			c.Launch(func(comm *mpi.Comm) {
				rank, size := comm.Rank(), comm.Size()
				next, prev := (rank+1)%size, (rank+size-1)%size
				send, sb := comm.Alloc(1024)
				recv, rb := comm.Alloc(1024)
				for i := range sb {
					sb[i] = byte(rank + i)
				}
				comm.Sendrecv(send, next, 7, recv, prev, 7)
				good := true
				for i := range rb {
					if rb[i] != byte(prev+i) {
						good = false
						break
					}
				}
				ok[rank] = good
			})
			for r, good := range ok {
				if !good {
					t.Errorf("rank %d received corrupt ring payload", r)
				}
			}
			ms := c.MemStats()
			// Lazy modes establish exactly the ring's 2 connections per
			// rank; eager wiring pays the full mesh regardless of traffic.
			want := 2 * np
			if cfg.ConnectMode == cluster.ConnectEager {
				want = np * (np - 1)
			}
			if ms.Connections != want {
				t.Errorf("established %d endpoints, want %d", ms.Connections, want)
			}
		})
	}
}

// TestLazyLargeMessages exercises the rendezvous path (including the SRQ
// mode's CH3 RTS/CTS/FIN by RDMA write) across a lazy connection.
func TestLazyLargeMessages(t *testing.T) {
	for name, cfg := range lazyConfigs(2) {
		t.Run(name, func(t *testing.T) {
			c := cluster.MustNew(cfg)
			defer c.Close()
			const n = 256 << 10
			var got bool
			c.Launch(func(comm *mpi.Comm) {
				buf, b := comm.Alloc(n)
				if comm.Rank() == 0 {
					for i := range b {
						b[i] = byte(i * 7)
					}
					comm.Send(buf, 1, 3)
				} else {
					comm.Recv(buf, 0, 3)
					good := true
					for i := range b {
						if b[i] != byte(i*7) {
							good = false
							break
						}
					}
					got = good
				}
			})
			if !got {
				t.Fatal("large payload corrupt over lazy connection")
			}
		})
	}
}

// TestEagerMemStatsAccounting checks the accounting on the fully wired
// default, every pair counted from both sides, against each endpoint's
// ring and cell constants: the chunk design's rings (a 4-rank mesh), the
// basic design's one undivided ring, and a shared-memory pair's cells and
// segment slots, which pin nothing and use no queue pair.
func TestEagerMemStatsAccounting(t *testing.T) {
	const (
		chunkRing = 2 * 128 << 10 // receive ring + staging mirror, 128 KB each
		basicRing = 2 * 64 << 10
		shmBytes  = shmchan.Cells*shmchan.EagerMax + shmchan.SegChunks*shmchan.SegChunk
	)
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
		per  transport.Footprint // one endpoint's
	}{
		{"zerocopy", cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy},
			transport.Footprint{QPs: 1, EagerSlots: 8, EagerBytes: chunkRing, PinnedBytes: chunkRing + 32}},
		{"basic", cluster.Config{NP: 2, Transport: cluster.TransportBasic},
			transport.Footprint{QPs: 1, EagerSlots: 1, EagerBytes: basicRing, PinnedBytes: basicRing + 32}},
		{"shm", cluster.Config{NP: 2, CoresPerNode: 2, Transport: cluster.TransportZeroCopy},
			transport.Footprint{EagerSlots: shmchan.Cells, EagerBytes: shmBytes}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.MustNew(tc.cfg)
			defer c.Close()
			n := tc.cfg.NP * (tc.cfg.NP - 1)
			want := cluster.MemStats{Ranks: tc.cfg.NP, Connections: n}
			for i := 0; i < n; i++ {
				want.Add(tc.per)
			}
			if got := c.MemStats(); got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		})
	}
}

// TestLazySRQMemStatsBounded checks the SRQ memory model: per-process
// eager buffering is the pool, independent of connection count.
func TestLazySRQMemStatsBounded(t *testing.T) {
	const np = 8
	c := cluster.MustNew(scenario.LazySRQ.On(cluster.Config{NP: np}))
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		// All-to-all so every connection exists.
		buf, _ := comm.Alloc(64)
		for peer := 0; peer < comm.Size(); peer++ {
			if peer == comm.Rank() {
				continue
			}
			r, _ := comm.Alloc(64)
			comm.Sendrecv(buf, peer, 1, r, peer, 1)
		}
	})
	poolBytes := int64((rdmachan.SRQSlots + rdmachan.SRQSendSlots) * rdmachan.SRQSlotSize)
	for r := 0; r < np; r++ {
		ms := c.RankMemStats(r)
		if ms.Connections != np-1 {
			t.Errorf("rank %d: %d connections, want %d", r, ms.Connections, np-1)
		}
		if ms.EagerBytes != poolBytes {
			t.Errorf("rank %d: eager bytes %d not bounded by pool %d", r, ms.EagerBytes, poolBytes)
		}
		if ms.QPs != np-1 {
			t.Errorf("rank %d: %d QPs, want %d", r, ms.QPs, np-1)
		}
	}
}

// TestSRQStallTouchesSlot: a burst that outruns the staging pool on an
// established SRQ connection, whose slot holds a free idle answer from the
// passes before, must touch that slot (DESIGN.md §18). The packets left
// queued after the last send go out only through a Poll; a pass that
// trusted the stale answer would step over them for good.
func TestSRQStallTouchesSlot(t *testing.T) {
	const msgs = 4 * rdmachan.SRQSendSlots
	c := cluster.MustNew(scenario.LazySRQ.On(cluster.Config{NP: 2}))
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(msgs * 8)
		at := func(i int) mpi.Buffer { return mpi.Buffer{Addr: buf.Addr + uint64(i*8), Len: 8} }
		comm.Barrier() // connects the pair; its passes leave free answers held
		var reqs []*mpi.Request
		for i := 0; i < msgs; i++ {
			if comm.Rank() == 0 {
				b[i*8] = byte(i)
				reqs = append(reqs, comm.Isend(at(i), 1, i))
			} else {
				reqs = append(reqs, comm.Irecv(at(i), 0, i))
			}
		}
		comm.WaitAll(reqs...)
		for i := 0; comm.Rank() == 1 && i < msgs; i++ {
			if b[i*8] != byte(i) {
				t.Errorf("message %d corrupt", i)
			}
		}
	})
	if st := c.Ranks[0].ProgressStats(); st.PollHits == 0 {
		t.Errorf("sender: %d polls, none moved a packet; want the stalled tail polled out", st.Polls)
	}
}
