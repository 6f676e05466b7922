package transport_test

// Lazy-connection engine coverage (DESIGN.md §9): messages racing the
// establishment handshake, the simultaneous-connect race, AnySource
// receives that must not force connections, and SRQ refill under burst.
// These run through real clusters so the whole path — stub → connection
// manager → endpoint promotion → flush — is exercised, and they are part
// of the -race CI job.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// lazyVariants mirrors the cluster test matrix: lazy over chunk rings and
// lazy over the SRQ-backed eager mode.
func lazyVariants() map[string]cluster.Config {
	return map[string]cluster.Config{
		"ring": {Transport: cluster.TransportZeroCopy, ConnectMode: cluster.ConnectLazy},
		"srq": {Transport: cluster.TransportZeroCopy, ConnectMode: cluster.ConnectLazy,
			Chan: rdmachan.Config{UseSRQ: true}},
	}
}

// TestMessageRacesHandshake posts a burst of sends before any connection
// exists: every message queues behind the in-flight handshake and must
// flush in posted order once the endpoint is promoted.
func TestMessageRacesHandshake(t *testing.T) {
	const msgs = 8
	for name, cfg := range lazyVariants() {
		cfg.NP = 2
		t.Run(name, func(t *testing.T) {
			c := cluster.MustNew(cfg)
			defer c.Close()
			var order []int
			c.Launch(func(comm *mpi.Comm) {
				if comm.Rank() == 0 {
					reqs := make([]*mpi.Request, msgs)
					bufs := make([]mpi.Buffer, msgs)
					for i := 0; i < msgs; i++ {
						buf, b := comm.Alloc(64)
						b[0] = byte(i + 1)
						bufs[i] = buf
						// All posted back-to-back: the first triggers the
						// dial, the rest race the handshake.
						reqs[i] = comm.Isend(buf, 1, 5)
					}
					comm.WaitAll(reqs...)
					return
				}
				buf, b := comm.Alloc(64)
				for i := 0; i < msgs; i++ {
					comm.Recv(buf, 0, 5)
					order = append(order, int(b[0]))
				}
			})
			for i, v := range order {
				if v != i+1 {
					t.Fatalf("arrival order %v: message %d overtook the handshake queue", order, v)
				}
			}
		})
	}
}

// TestSimultaneousDial has both ranks send to each other at the same
// instant: the two dials must resolve to a single establishment shared by
// both engines — one connection pair, not two.
func TestSimultaneousDial(t *testing.T) {
	for name, cfg := range lazyVariants() {
		cfg.NP = 2
		t.Run(name, func(t *testing.T) {
			c := cluster.MustNew(cfg)
			defer c.Close()
			var ok [2]bool
			c.Launch(func(comm *mpi.Comm) {
				rank := comm.Rank()
				peer := 1 - rank
				send, sb := comm.Alloc(128)
				recv, rb := comm.Alloc(128)
				sb[7] = byte(10 + rank)
				sr := comm.Isend(send, peer, 1)
				rr := comm.Irecv(recv, peer, 1)
				comm.WaitAll(sr, rr)
				ok[rank] = rb[7] == byte(10+peer)
			})
			if !ok[0] || !ok[1] {
				t.Fatal("simultaneous-dial exchange corrupted a payload")
			}
			ms := c.MemStats()
			if ms.Connections != 2 {
				t.Errorf("%d endpoints established, want 2 (one shared pair)", ms.Connections)
			}
			if name == "srq" && ms.QPs != 2 {
				t.Errorf("%d QPs, want 2: the simultaneous dials must share one establishment", ms.QPs)
			}
		})
	}
}

// TestAnySourceNoConnect posts a wildcard receive on a rank with no
// connections: it must complete from the one peer that sends, without
// establishing connections to anyone else.
func TestAnySourceNoConnect(t *testing.T) {
	const np = 8
	for name, cfg := range lazyVariants() {
		cfg.NP = np
		t.Run(name, func(t *testing.T) {
			c := cluster.MustNew(cfg)
			defer c.Close()
			var src int
			c.Launch(func(comm *mpi.Comm) {
				switch comm.Rank() {
				case 0:
					buf, _ := comm.Alloc(256)
					st := comm.Recv(buf, mpi.AnySource, 3)
					src = int(st.Source)
				case 3:
					buf, _ := comm.Alloc(256)
					comm.Send(buf, 0, 3)
				}
			})
			if src != 3 {
				t.Fatalf("wildcard receive completed from %d, want 3", src)
			}
			ms := c.MemStats()
			if ms.Connections != 2 {
				t.Errorf("%d endpoints established; the wildcard must not connect to idle peers", ms.Connections)
			}
			for r := 1; r < np; r++ {
				if r != 3 && c.RankMemStats(r).Connections != 0 {
					t.Errorf("idle rank %d holds %d connections", r, c.RankMemStats(r).Connections)
				}
			}
		})
	}
}

// TestSRQRefillBurst floods one receiver from every other rank while it
// sits in a compute phase: 64 messages into the 32-slot pool must outrun
// the refill (observable as receiver-not-ready NAKs), the low-watermark
// refill must recover, and every payload must arrive intact.
func TestSRQRefillBurst(t *testing.T) {
	const np, perSender, size = 5, 16, 512
	c := cluster.MustNew(cluster.Config{
		NP: np, Transport: cluster.TransportZeroCopy, ConnectMode: cluster.ConnectLazy,
		Chan: rdmachan.Config{UseSRQ: true},
	})
	defer c.Close()
	seqs := make(map[int][]int)
	c.Launch(func(comm *mpi.Comm) {
		rank := comm.Rank()
		if rank != 0 {
			buf, b := comm.Alloc(size)
			for i := 0; i < perSender; i++ {
				b[0], b[1] = byte(rank), byte(i)
				comm.Send(buf, 0, 11)
			}
			return
		}
		// Let the burst pile into the shared queue while rank 0 computes.
		comm.Compute(1e6)
		buf, b := comm.Alloc(size)
		for i := 0; i < (np-1)*perSender; i++ {
			comm.Recv(buf, mpi.AnySource, 11)
			seqs[int(b[0])] = append(seqs[int(b[0])], int(b[1]))
		}
	})
	for r := 1; r < np; r++ {
		if len(seqs[r]) != perSender {
			t.Errorf("rank 0 received %d messages from rank %d, want %d", len(seqs[r]), r, perSender)
			continue
		}
		// MPI non-overtaking must survive the RNR NAK/retry path: an RNR'd
		// send blocks its QP's delivery queue, so per-sender sequence
		// numbers arrive strictly in order.
		for i, v := range seqs[r] {
			if v != i {
				t.Fatalf("rank %d messages reordered under RNR retry: %v", r, seqs[r])
			}
		}
	}
	st := c.SRQPool(0).Stats()
	if st.RNRNaks == 0 {
		t.Errorf("burst never emptied the %d-slot SRQ: no RNR NAKs observed", rdmachan.SRQSlots)
	}
	if st.Reposts == 0 {
		t.Error("no refill reposts recorded")
	}
	if st.LimitWakes == 0 {
		t.Error("low-watermark limit event never fired")
	}
}

// TestRedialRacesSimultaneousDial extends the simultaneous-dial race into
// recovery: both ranks dial at once (one establishment), the connection's
// rail dies mid-conversation, and both ends detect the outage in the same
// engine pass — the two re-dial requests must collapse into a single
// re-establishment, exactly like the original dials, and the second
// exchange must complete intact on the surviving rail.
func TestRedialRacesSimultaneousDial(t *testing.T) {
	cfg := lazyVariants()["srq"]
	cfg.NP = 2
	cfg.RailsPerNode = 2
	// The lone SRQ connection lands on rail 0 (round-robin from zero);
	// killing it mid-run breaks both ends at the same simulated instant.
	cfg.Fault = &fault.Plan{Events: []fault.Event{
		{At: 30 * des.Microsecond, Kind: fault.HCADown, Node: 0, Rail: 0},
		{At: 30 * des.Microsecond, Kind: fault.HCADown, Node: 1, Rail: 0},
	}}
	c := cluster.MustNew(cfg)
	defer c.Close()
	var ok [2][2]bool
	c.Launch(func(comm *mpi.Comm) {
		rank := comm.Rank()
		peer := 1 - rank
		send, sb := comm.Alloc(128)
		recv, rb := comm.Alloc(128)
		for round := 0; round < 2; round++ {
			sb[7] = byte(10 + rank + round)
			sr := comm.Isend(send, peer, 1)
			rr := comm.Irecv(recv, peer, 1)
			comm.WaitAll(sr, rr)
			ok[round][rank] = rb[7] == byte(10+peer+round)
			if round == 0 {
				// Park both ranks past the outage so round 2 runs on a
				// connection that has been broken and re-dialed.
				comm.Compute(1e5)
			}
		}
	})
	for round := range ok {
		if !ok[round][0] || !ok[round][1] {
			t.Fatalf("round %d payload corrupted across the re-dial: %+v", round, ok)
		}
	}
	fs := c.FaultStats()
	if fs.Redials != 1 {
		t.Fatalf("%d re-establishments, want exactly 1 (the race must collapse): %+v",
			fs.Redials, fs)
	}
	if fs.MeanRecovery() <= 0 {
		t.Errorf("re-dial recorded no recovery latency: %+v", fs)
	}
}
