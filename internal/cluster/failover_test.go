package cluster

// Chaos property tests (DESIGN.md §11): random generated failure
// schedules against real traffic, asserting the recovered run delivers
// exactly the payloads of the failure-free run. These also serve as the
// -race soak for reconnect + SRQ refill — the CI race job runs this
// package with -race.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

func chaosConfig(plan *fault.Plan) Config {
	return Config{
		NP:           4,
		Transport:    TransportZeroCopy,
		ConnectMode:  ConnectLazy,
		RailsPerNode: 2,
		Chan:         rdmachan.Config{UseSRQ: true},
		Fault:        plan,
	}
}

// stencilChecksums runs a 1-D stencil-style halo exchange (the NAS-ish
// traffic pattern: neighbours swap 24 KiB borders, then everyone
// allreduces) and returns each rank's payload checksum.
func stencilChecksums(t *testing.T, cfg Config) []uint64 {
	t.Helper()
	c := MustNew(cfg)
	defer c.Close()
	const size = 24 << 10
	sums := make([]uint64, cfg.NP)
	c.Launch(func(comm *mpi.Comm) {
		np, me := comm.Size(), comm.Rank()
		up, down := (me+1)%np, (me+np-1)%np
		sbuf, sb := comm.Alloc(size)
		rbuf, rb := comm.Alloc(size)
		h := uint64(14695981039346656037)
		for iter := 0; iter < 5; iter++ {
			for i := range sb {
				sb[i] = byte(me ^ (i * 31) ^ iter)
			}
			comm.Sendrecv2(sbuf, up, rbuf, down, 7)
			for _, b := range rb {
				h = (h ^ uint64(b)) * 1099511628211
			}
			acc, ab := comm.Alloc(8)
			out, ob := comm.Alloc(8)
			mpi.PutInt64(ab, 0, int64(h&0x7FFFFFFF))
			comm.Allreduce(acc, out, mpi.Int64, mpi.Sum)
			h ^= uint64(mpi.GetInt64(ob, 0))
		}
		sums[me] = h
	})
	return sums
}

// TestChaosSchedulesPreservePayloads is the chaos property: for a spread
// of seeds, traffic under a generated failure schedule must deliver
// byte-identical payloads to the failure-free run. The baseline runs the
// resilient stack under an empty plan so the property isolates recovery,
// not bookkeeping.
func TestChaosSchedulesPreservePayloads(t *testing.T) {
	want := stencilChecksums(t, chaosConfig(&fault.Plan{}))
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := fault.Generate(fault.GenConfig{
				Seed: seed, Nodes: 4, Rails: 2,
				Horizon: 400 * des.Microsecond, Events: 5,
				Kinds:     []fault.Kind{fault.LinkDown, fault.DropBurst},
				SpareRail: -1,
			})
			got := stencilChecksums(t, chaosConfig(plan))
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("rank %d payload diverged under chaos seed %d: %#x, want %#x",
						r, seed, got[r], want[r])
				}
			}
		})
	}
}

// TestRailFlapReconnectSoak flaps rails while lazy connections establish,
// break, and re-dial under all-pairs traffic — the reconnect + SRQ-refill
// soak the CI -race job leans on. Each rank in turn sits in a compute phase
// while the other three each send it a burst of `rounds` messages: the two
// senders whose connections share a rail put 48 packets into that rail's
// 32-slot pool, which keeps the refill machinery hot. The flaps run from
// the first bursts to the last drain (40–1035 µs of a ≈1.4 ms run), so
// they land on RNR-stalled bursts, on drains and refills, and on the lazy
// dials among ranks 1–3 (pair 1–2 dials while node 1's rail 1 is down).
//
// The closing Barrier keeps every rank in the job until all bursts have
// landed. A rank that has left Launch no longer polls, so a packet it still
// retains cannot be resent after a later flap: Launch has no finalize step
// that completes outstanding sends the way MPI_Finalize does.
func TestRailFlapReconnectSoak(t *testing.T) {
	var plan fault.Plan
	for i := 0; i < 16; i++ {
		plan.Events = append(plan.Events, fault.Event{
			At:   40*des.Microsecond + des.Time(i)*65*des.Microsecond,
			Kind: fault.LinkDown, Node: i % 4, Rail: i % 2,
			For: 20 * des.Microsecond,
		})
	}
	c := MustNew(chaosConfig(&plan))
	defer c.Close()
	const size, rounds = 2048, 24
	var delivered [4][4]int
	c.Launch(func(comm *mpi.Comm) {
		np, me := comm.Size(), comm.Rank()
		rbuf, rb := comm.Alloc(size)
		for target := 0; target < np; target++ {
			if target != me {
				reqs := make([]*mpi.Request, rounds)
				for round := range reqs {
					sbuf, sb := comm.Alloc(size)
					for i := range sb {
						sb[i] = byte(me*16 + round + i)
					}
					reqs[round] = comm.Isend(sbuf, target, round)
				}
				comm.WaitAll(reqs...)
				continue
			}
			comm.Compute(1e5) // 250 µs unpolled: the bursts pile into the pools
			for peer := 0; peer < np; peer++ {
				for round := 0; peer != me && round < rounds; round++ {
					comm.Recv(rbuf, peer, round)
					if rb[0] == byte(peer*16+round) {
						delivered[me][peer]++
					}
				}
			}
		}
		comm.Barrier()
	})
	for me := range delivered {
		for peer, n := range delivered[me] {
			if peer == me {
				continue
			}
			if n != rounds {
				t.Errorf("rank %d got %d/%d intact rounds from %d under rail flaps",
					me, n, rounds, peer)
			}
		}
	}
	if fs := c.FaultStats(); fs.Redials == 0 {
		t.Errorf("soak exercised no re-dials: %+v", fs)
	}
	var naks, reposts uint64
	for _, rails := range c.pools {
		for _, pool := range rails {
			st := pool.Stats()
			naks += st.RNRNaks
			reposts += st.Reposts
		}
	}
	if naks == 0 {
		t.Error("no burst outran a pool: no RNR NAKs observed")
	}
	if reposts == 0 {
		t.Error("no pool was refilled: no reposts observed")
	}
}

// TestFaultStatsAccounting pins the counters: a plan with a healing
// LinkDown and a DropBurst must report exactly what it did.
func TestFaultStatsAccounting(t *testing.T) {
	cfg := chaosConfig(&fault.Plan{Events: []fault.Event{
		{At: 20 * des.Microsecond, Kind: fault.LinkDown, Node: 0, Rail: 0,
			For: 30 * des.Microsecond},
		{At: 90 * des.Microsecond, Kind: fault.DropBurst, Node: 1, Rail: 1,
			For: 10 * des.Microsecond},
	}})
	c := MustNew(cfg)
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(4096)
		for i := 0; i < 40; i++ {
			if comm.Rank() == 0 {
				comm.Send2(buf, 1, 2)
			} else if comm.Rank() == 1 {
				comm.Recv2(buf, 0, 2)
			}
			comm.Barrier()
		}
	})
	fs := c.FaultStats()
	if fs.LinksDowned != 1 || fs.LinksRestored != 1 || fs.DropBursts != 1 {
		t.Errorf("fault stats %+v, want 1 down / 1 restore / 1 burst", fs)
	}
	if fs.Redials > 0 && fs.MeanRecovery() <= 0 {
		t.Errorf("re-dials recorded with no recovery latency: %+v", fs)
	}
}

// TestLazyDialDeadPartitionFails kills both rails of node 1 before rank 0
// first speaks to rank 1: the lazy SRQ dial finds no rail up between the
// pair, waits as long as a re-dial would for one to heal, then fails both
// ranks — the run ends with the error rather than waiting forever.
func TestLazyDialDeadPartitionFails(t *testing.T) {
	cfg := chaosConfig(&fault.Plan{Events: []fault.Event{
		{Kind: fault.HCADown, Node: 1, Rail: 0},
		{Kind: fault.HCADown, Node: 1, Rail: 1},
	}})
	cfg.NP = 2
	c := MustNew(cfg)
	defer c.Close()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		c.Launch(func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(64)
			if comm.Rank() == 0 {
				comm.Send(buf, 1, 5)
			} else {
				comm.Recv(buf, 0, 5)
			}
		})
		return ""
	}()
	if !strings.Contains(msg, "connect 0-1") || !strings.Contains(msg, "no surviving rail") {
		t.Fatalf("dead partition: run ended with %q, want the connect 0-1 no-surviving-rail error", msg)
	}
}
