package ch3_test

// Failover edge-case coverage: a rail that dies at every point of the
// rendezvous protocol — before the dial, between RTS and CTS, between CTS
// and FIN, after FIN — must leave the transfer correct. Rather than
// hand-placing one failure per protocol window, these tests sweep the
// LinkDown instant across the whole transfer in fine steps under the
// deterministic engine, so every window (including the ones between
// packets of the same phase, and SRQ refill in progress) is hit by some
// offset. Runs compare payload checksums against the failure-free run.

import (
	"fmt"
	"testing"

	"repro/internal/ch3"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func fnvSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// runRendezvousExchange sends three 256 KiB rendezvous messages from rank
// 0 to rank 1 under the given config and returns the receiver's payload
// checksum and the finish time.
func runRendezvousExchange(t *testing.T, cfg cluster.Config) (sum uint64, took des.Time) {
	t.Helper()
	sum, took, _ = rendezvousExchange(t, cfg)
	return sum, took
}

// rendezvousExchange is runRendezvousExchange that also sums both ranks'
// fault-recovery counters over their channel endpoints.
func rendezvousExchange(t *testing.T, cfg cluster.Config) (sum uint64, took des.Time, rec recovery) {
	t.Helper()
	cfg.NP = 2
	c := cluster.MustNew(cfg)
	defer c.Close()
	const size = 256 << 10
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() == 0 {
			buf, b := comm.Alloc(size)
			for round := 0; round < 3; round++ {
				for i := range b {
					b[i] = byte(i*7 + round)
				}
				comm.Send2(buf, 1, 9)
			}
			return
		}
		buf, b := comm.Alloc(size)
		for round := 0; round < 3; round++ {
			comm.Recv2(buf, 0, 9)
			sum = sum*1099511628211 ^ fnvSum(b)
		}
	})
	return sum, c.Now(), recoveryStats(c)
}

// runEagerStream sends 256 one-KiB eager messages from rank 0 to rank 1,
// so eager chunks are in flight on every rail for the whole run, and
// returns the receiver's checksum and the finish time.
func runEagerStream(t *testing.T, cfg cluster.Config) (sum uint64, took des.Time, rec recovery) {
	t.Helper()
	cfg.NP = 2
	c := cluster.MustNew(cfg)
	defer c.Close()
	const msgs, size = 256, 1 << 10
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(size)
		for m := 0; m < msgs; m++ {
			if comm.Rank() == 0 {
				for i := range b {
					b[i] = byte(i*5 + m)
				}
				comm.Send2(buf, 1, 3)
			} else {
				comm.Recv2(buf, 0, 3)
				sum = sum*1099511628211 ^ fnvSum(b)
			}
		}
	})
	return sum, c.Now(), recoveryStats(c)
}

// recovery is the sum of the rdmachan.Stats fault-recovery counters over
// every rank's channel endpoints.
type recovery struct{ RailEvictions, ChunkReposts, StripeReissues uint64 }

func (r *recovery) add(o recovery) {
	r.RailEvictions += o.RailEvictions
	r.ChunkReposts += o.ChunkReposts
	r.StripeReissues += o.StripeReissues
}

func recoveryStats(c *cluster.Cluster) (rec recovery) {
	for _, eng := range c.Ranks {
		eng.ForEachEndpoint(func(_ int32, ep transport.Endpoint) {
			if conn, ok := ep.(*ch3.Conn); ok {
				st := conn.Endpoint().Stats()
				rec.add(recovery{st.RailEvictions, st.ChunkReposts, st.StripeReissues})
			}
		})
	}
	return rec
}

// sweepRailLoss runs the exchange failure-free, then replays it with one
// rail downed at offsets sweeping the whole transfer, checking the
// checksum every time.
func sweepRailLoss(t *testing.T, mk func(plan *fault.Plan) cluster.Config, rail int) {
	sweepRailLossWith(t, "", mk, rail, runRendezvousExchange)
}

// sweepRailLossWith is sweepRailLoss over an arbitrary workload runner, its
// subtest names prefixed with prefix.
func sweepRailLossWith(t *testing.T, prefix string, mk func(plan *fault.Plan) cluster.Config, rail int,
	run func(*testing.T, cluster.Config) (uint64, des.Time)) {
	want, took := run(t, mk(&fault.Plan{}))
	if want == 0 {
		t.Fatal("degenerate failure-free checksum")
	}
	step := took / 12
	if step <= 0 {
		t.Fatalf("transfer too short to sweep: %v", took)
	}
	for off := des.Time(0); off <= took+step; off += step {
		off := off
		t.Run(fmt.Sprintf("%sdown@%v", prefix, off), func(t *testing.T) {
			got, _ := run(t, mk(&fault.Plan{Events: []fault.Event{
				{At: off, Kind: fault.HCADown, Node: 0, Rail: rail},
				{At: off, Kind: fault.HCADown, Node: 1, Rail: rail},
			}}))
			if got != want {
				t.Fatalf("rail %d down at %v corrupted the transfer: checksum %#x, want %#x",
					rail, off, got, want)
			}
		})
	}
}

// TestSRQRailLossSweep kills rail 0 — the rail the single SRQ connection
// lives on — at every protocol window of a rendezvous sequence: the
// connection must re-dial onto rail 1 and resend whatever the outage ate,
// wherever it struck (RTS posted but CTS not yet back, CTS back but the
// data write in flight, FIN pending, refill in progress).
func TestSRQRailLossSweep(t *testing.T) {
	sweepRailLoss(t, func(plan *fault.Plan) cluster.Config {
		return scenario.LazySRQ.On(cluster.Config{RailsPerNode: 2, Fault: plan})
	}, 0)
}

// TestChunkStripeRailLossSweep kills rail 1 under both chunk-ring stripe
// users — the channel's striped zero-copy reads and the CH3 design's striped
// rendezvous writes: stripes issued to the dead rail must re-issue on rail 0
// (rail 0 itself carries the flow-control counters and is connection-fatal
// by design, so it is the one that must survive). An eager stream sweeps
// the eager chunks in flight on rail 1 the same way. The recovery counters
// DESIGN.md §11 cites must each show that work somewhere in the sweep, and
// stay zero in every fault-free cell.
func TestChunkStripeRailLossSweep(t *testing.T) {
	var swept recovery
	for _, tc := range []struct {
		prefix string // of the subtest names; the zero-copy sweep's predate the table
		tr     cluster.Transport
		run    func(*testing.T, cluster.Config) (uint64, des.Time, recovery)
	}{
		{"", cluster.TransportZeroCopy, rendezvousExchange},
		{"ch3-", cluster.TransportCH3, rendezvousExchange},
		{"eager-", cluster.TransportZeroCopy, runEagerStream},
	} {
		sweepRailLossWith(t, tc.prefix, func(plan *fault.Plan) cluster.Config {
			return cluster.Config{
				Transport:    tc.tr,
				RailsPerNode: 2,
				Fault:        plan,
			}
		}, 1, func(t *testing.T, cfg cluster.Config) (uint64, des.Time) {
			sum, took, rec := tc.run(t, cfg)
			if len(cfg.Fault.Events) == 0 && rec != (recovery{}) {
				t.Errorf("%sfault-free run counted recovery work: %+v", tc.prefix, rec)
			}
			swept.add(rec)
			return sum, took
		})
	}
	t.Logf("sweep recovery counters: %+v", swept)
	if swept.RailEvictions == 0 || swept.ChunkReposts == 0 || swept.StripeReissues == 0 {
		t.Errorf("sweep recovery counters: evictions=%d chunk reposts=%d stripe reissues=%d, want all > 0",
			swept.RailEvictions, swept.ChunkReposts, swept.StripeReissues)
	}
}

// runDirectAllreduceWindow runs three allreduce rounds with the tuning
// table forcing allreduce/rdma-direct and returns a checksum over every
// round's result on rank 1 plus the finish time. An armed fault plan
// clears the cluster's RDMA-direct capability, so the forced algorithm
// falls back to the flat path through the registry — the fallback under
// test here.
func runDirectAllreduceWindow(t *testing.T, cfg cluster.Config) (sum uint64, took des.Time) {
	t.Helper()
	cfg.NP = 2
	tun := mpi.Tuning{Allreduce: "rdma-direct"}
	cfg.Tuning = &tun
	c := cluster.MustNew(cfg)
	defer c.Close()
	const n = 16 << 10 // elements; 128 KiB payload, several granule flights
	c.Launch(func(comm *mpi.Comm) {
		send, sb := comm.Alloc(8 * n)
		recv, rb := comm.Alloc(8 * n)
		for round := 0; round < 3; round++ {
			for i := 0; i < n; i++ {
				mpi.PutInt64(sb, i, int64(comm.Rank()+i+round))
			}
			comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
			if comm.Rank() == 1 {
				want := int64(1) // 0+1 rank contributions
				if got := mpi.GetInt64(rb, 0); got != want+2*int64(round) {
					t.Errorf("round %d: elem 0 = %d, want %d", round, got, want+2*int64(round))
				}
				sum = sum*1099511628211 ^ fnvSum(rb)
			}
		}
	})
	return sum, c.Now()
}

// TestRDMADirectRailLossSweep kills a rail at every window of an
// allreduce sequence whose tuning forces the RDMA-direct path. The armed
// fault plan drops the cluster's direct capability, so every round falls
// back to the flat algorithms over the resilient SRQ stack — rail death
// mid-collective must re-dial and complete with bit-identical results at
// every failure instant.
func TestRDMADirectRailLossSweep(t *testing.T) {
	sweepRailLossWith(t, "", func(plan *fault.Plan) cluster.Config {
		return scenario.LazySRQ.On(cluster.Config{RailsPerNode: 2, Fault: plan})
	}, 0, runDirectAllreduceWindow)
}

// TestSRQRefillUnderRailFlap drives an eager burst larger than the SRQ pool
// — 64 messages into 32 slots while the receiver computes for 250 µs — as
// the connection's rail flaps down and up repeatedly: every message must
// arrive intact, through reposts, re-dials and refills. The flaps alternate
// rails, so each one breaks the rail the connection was re-dialed onto, and
// run from 170 to 395 µs: the first two hit the burst stalled on the full
// pool, the rest the receive loop that refills it. Both ranks finish with a
// Barrier, after the last flap: a rank that has left Launch no longer polls,
// so a later flap would strand the packets it still retains.
func TestSRQRefillUnderRailFlap(t *testing.T) {
	const msgs, size = 64, 1024
	plan := &fault.Plan{}
	for i := 0; i < 8; i++ {
		plan.Events = append(plan.Events, fault.Event{
			At:   170*des.Microsecond + des.Time(i)*30*des.Microsecond,
			Kind: fault.LinkDown, Node: i % 2, Rail: i % 2,
			For: 15 * des.Microsecond,
		})
	}
	c := cluster.MustNew(scenario.LazySRQ.On(cluster.Config{NP: 2, RailsPerNode: 2, Fault: plan}))
	defer c.Close()
	var got []uint64
	// The receiver's pools: rail 0's, and whichever one a re-dial moved the
	// connection onto.
	pools := map[*rdmachan.SRQPool]bool{c.SRQPool(1): true}
	c.Launch(func(comm *mpi.Comm) {
		if comm.Rank() == 0 {
			buf, b := comm.Alloc(size)
			for i := 0; i < msgs; i++ {
				for j := range b {
					b[j] = byte(i + j*3)
				}
				comm.Send2(buf, 1, 4)
			}
			comm.Barrier()
			return
		}
		buf, b := comm.Alloc(size)
		comm.Compute(1e5)
		for i := 0; i < msgs; i++ {
			comm.Recv2(buf, 0, 4)
			got = append(got, fnvSum(b))
			pools[c.Ranks[1].Endpoint(0).(*ch3.SRQConn).Pool()] = true
		}
		comm.Barrier()
	})
	for i, sum := range got {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(i + j*3)
		}
		if want := fnvSum(b); sum != want {
			t.Fatalf("message %d corrupted under rail flap: %#x, want %#x", i, sum, want)
		}
	}
	if len(got) != msgs {
		t.Fatalf("received %d of %d messages", len(got), msgs)
	}
	var st rdmachan.SRQPoolStats
	for pool := range pools {
		st.RNRNaks += pool.Stats().RNRNaks
		st.Reposts += pool.Stats().Reposts
	}
	if st.RNRNaks == 0 || st.Reposts == 0 {
		t.Errorf("burst did not outrun and refill the receiver's pool: %+v", st)
	}
	if fs := c.FaultStats(); fs.Redials == 0 {
		t.Errorf("no flap broke the connection: %+v", fs)
	}
}
