package transport_test

// Mixed-transport topology coverage at the transport layer: every layout
// the cluster can wire — all-shm single node, shm+IB multi-node, the
// 2-rank degenerate case, non-power-of-two rank counts — must run the same
// MPI traffic through the one progress engine, whatever mix of endpoints
// sits behind it.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/shmchan"
)

// exchangeAll runs an all-pairs token exchange plus an allreduce and
// reports the allreduce sum seen at rank 0. Point-to-point covers every
// endpoint in both directions; sizes straddle eager/rendezvous cutoffs.
func exchangeAll(t *testing.T, cfg cluster.Config, size int) {
	t.Helper()
	c := cluster.MustNew(cfg)
	defer c.Close()
	np := cfg.NP
	sum := -1
	c.Launch(func(comm *mpi.Comm) {
		me := comm.Rank()
		buf, b := comm.Alloc(size)
		rbuf, rb := comm.Alloc(size)
		for peer := 0; peer < np; peer++ {
			if peer == me {
				continue
			}
			for i := range b {
				b[i] = byte(me*31 + i)
			}
			st := comm.Sendrecv(buf, peer, 5, rbuf, peer, 5)
			if st.Source != int32(peer) || st.Len != size {
				t.Errorf("rank %d<-%d: status %+v", me, peer, st)
				return
			}
			for i := range rb {
				if rb[i] != byte(peer*31+i) {
					t.Errorf("rank %d<-%d: corrupt at %d", me, peer, i)
					return
				}
			}
		}
		send, sb := comm.Alloc(8)
		recv, rcb := comm.Alloc(8)
		mpi.PutInt64(sb, 0, int64(me))
		comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
		if me == 0 {
			sum = int(mpi.GetInt64(rcb, 0))
		}
	})
	if want := np * (np - 1) / 2; sum != want {
		t.Errorf("allreduce sum = %d, want %d", sum, want)
	}
}

func TestTopologyMatrix(t *testing.T) {
	shmRndv := shmchan.Config{RndvThreshold: 16 << 10}
	cases := []struct {
		name string
		cfg  cluster.Config
	}{
		{"2rank-degenerate-ib", cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy}},
		{"2rank-degenerate-shm", cluster.Config{NP: 2, CoresPerNode: 2, Transport: cluster.TransportZeroCopy}},
		{"single-node-all-shm", cluster.Config{NP: 4, CoresPerNode: 4, Transport: cluster.TransportZeroCopy}},
		{"single-node-all-shm-rndv", cluster.Config{NP: 4, CoresPerNode: 4,
			Transport: cluster.TransportZeroCopy, Shm: shmRndv}},
		{"multi-node-shm-ib", cluster.Config{NP: 6, CoresPerNode: 2, Transport: cluster.TransportZeroCopy}},
		{"multi-node-shm-ch3", cluster.Config{NP: 6, CoresPerNode: 2, Transport: cluster.TransportCH3}},
		{"multi-node-shm-rndv-ch3", cluster.Config{NP: 6, CoresPerNode: 2,
			Transport: cluster.TransportCH3, Shm: shmRndv}},
		{"non-pow2-ranks-ib", cluster.Config{NP: 5, Transport: cluster.TransportPipeline}},
		{"non-pow2-ranks-mixed", cluster.Config{NP: 7, CoresPerNode: 3, Transport: cluster.TransportZeroCopy}},
		{"non-pow2-ranks-mixed-rndv", cluster.Config{NP: 7, CoresPerNode: 3,
			Transport: cluster.TransportCH3, Shm: shmRndv}},
	}
	// 64 KB crosses the shm rendezvous threshold, the CH3 rendezvous
	// threshold and the zero-copy threshold; 512 B stays eager everywhere.
	for _, size := range []int{512, 64 << 10} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%d", tc.name, size), func(t *testing.T) {
				exchangeAll(t, tc.cfg, size)
			})
		}
	}
}

func TestWildcardRendezvousAcrossTransports(t *testing.T) {
	// End-to-end version of the engine-level wildcard regression: rank 0
	// posts AnySource/AnyTag receives for large (rendezvous) messages that
	// arrive from a shm peer and an IB peer; both must land in the right
	// buffer with the right source.
	const size = 128 << 10
	cfg := cluster.Config{
		NP: 4, CoresPerNode: 2,
		Transport: cluster.TransportCH3,
		Shm:       shmchan.Config{RndvThreshold: 16 << 10},
	}
	c := cluster.MustNew(cfg)
	defer c.Close()
	got := map[int]bool{}
	c.Launch(func(comm *mpi.Comm) {
		switch comm.Rank() {
		case 0:
			for k := 0; k < 2; k++ {
				buf, b := comm.Alloc(size)
				st := comm.Recv(buf, mpi.AnySource, mpi.AnyTag)
				if st.Len != size {
					t.Errorf("recv %d: status %+v", k, st)
					return
				}
				src := int(st.Source)
				for i := range b {
					if b[i] != byte(src+i*7) {
						t.Errorf("payload from %d corrupt at %d", src, i)
						return
					}
				}
				got[src] = true
			}
		case 1, 2: // 1 is co-located with 0 (shm); 2 is remote (IB)
			buf, b := comm.Alloc(size)
			for i := range b {
				b[i] = byte(comm.Rank() + i*7)
			}
			comm.Send(buf, 0, comm.Rank())
		}
	})
	if !got[1] || !got[2] {
		t.Fatalf("wildcard receives resolved %v, want both shm (1) and IB (2) sources", got)
	}
}

// TestSelfSend: MPI allows a rank to send to itself, and the engine
// delivers such a message as one local copy — through a posted receive, or
// through the unexpected queue when the send comes first, where a wildcard
// receive matches it. Each payload is checked after the send buffer has
// been overwritten, so a receive that merely aliased it would fail.
func TestSelfSend(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		me := comm.Rank()
		for _, size := range []int{0, 64, 1 << 20} {
			sfull, sb := comm.Alloc(size + 1)
			rfull, rb := comm.Alloc(size + 1)
			send, recv := mpi.Slice(sfull, 0, size), mpi.Slice(rfull, 0, size)
			fill := func(tag int) {
				for i := range sb {
					sb[i] = byte(me + tag + 7*i)
				}
			}
			check := func(how string, tag int, st mpi.Status) {
				if st.Source != int32(me) || st.Tag != int32(tag) || st.Len != size {
					t.Errorf("rank %d %s, %d B: status %+v", me, how, size, st)
				}
				for i := 0; i < size; i++ {
					if rb[i] != byte(me+tag+7*i) {
						t.Errorf("rank %d %s, %d B: corrupt at %d", me, how, size, i)
						return
					}
				}
			}
			fill(1)
			check("Sendrecv", 1, comm.Sendrecv(send, me, 1, recv, me, 1))

			fill(2)
			comm.Wait(comm.Isend(send, me, 2))
			fill(0)
			check("Isend before AnySource Irecv", 2, comm.Wait(comm.Irecv(recv, mpi.AnySource, 2)))

			r := comm.Irecv(recv, me, 3)
			fill(3)
			comm.Wait(comm.Isend(send, me, 3))
			fill(0)
			check("Irecv before Isend", 3, comm.Wait(r))
		}
	})
}
