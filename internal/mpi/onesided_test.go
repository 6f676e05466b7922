package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

func TestOneSidedPutGet(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3, cluster.TransportPipeline} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			c := cluster.MustNew(cluster.Config{NP: 4, Transport: tr})
			c.Launch(func(comm *mpi.Comm) {
				const winSize = 4096
				rank, size := comm.Rank(), comm.Size()
				winBuf, winBytes := comm.Alloc(winSize)
				for i := range winBytes {
					winBytes[i] = byte(rank)
				}
				win, err := comm.WinCreate(winBuf)
				if err != nil {
					t.Errorf("WinCreate: %v", err)
					return
				}

				// Every rank puts its rank byte into the next rank's window
				// at a rank-specific offset.
				target := (rank + 1) % size
				local, lb := comm.Alloc(64)
				for i := range lb {
					lb[i] = byte(100 + rank)
				}
				if err := win.Put(local, target, rank*64); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if err := win.Fence(); err != nil {
					t.Errorf("Fence: %v", err)
					return
				}

				// Check the incoming put landed (from rank-1).
				src := (rank - 1 + size) % size
				for i := 0; i < 64; i++ {
					if winBytes[src*64+i] != byte(100+src) {
						t.Errorf("rank %d: window byte %d = %d, want %d",
							rank, src*64+i, winBytes[src*64+i], 100+src)
						return
					}
				}

				// Get a slice of the previous rank's window.
				gbuf, gb := comm.Alloc(128)
				if err := win.Get(gbuf, src, 1024); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if err := win.Fence(); err != nil {
					t.Errorf("Fence: %v", err)
					return
				}
				for i := range gb {
					if gb[i] != byte(src) {
						t.Errorf("rank %d: got %d from rank %d window, want %d", rank, gb[i], src, src)
						return
					}
				}
			})
		})
	}
}

func TestOneSidedAtomics(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy})
	c.Launch(func(comm *mpi.Comm) {
		winBuf, winBytes := comm.Alloc(64)
		mpi.PutInt64(winBytes, 0, 0)
		win, err := comm.WinCreate(winBuf)
		if err != nil {
			t.Errorf("WinCreate: %v", err)
			return
		}
		// Every rank atomically increments a counter on rank 0.
		if comm.Rank() != 0 {
			if _, err := win.FetchAdd(0, 0, 1); err != nil {
				t.Errorf("FetchAdd: %v", err)
				return
			}
		}
		if err := win.Fence(); err != nil {
			t.Errorf("Fence: %v", err)
			return
		}
		if comm.Rank() == 0 {
			if got := mpi.GetInt64(winBytes, 0); got != 3 {
				t.Errorf("counter = %d, want 3", got)
			}
		}

		// Compare-and-swap lock acquisition: exactly one rank wins.
		mpi.PutInt64(winBytes, 1, 0)
		comm.Barrier()
		won := int64(0)
		if comm.Rank() != 0 {
			old, err := win.CompareSwap(0, 8, 0, int64(comm.Rank()))
			if err != nil {
				t.Errorf("CompareSwap: %v", err)
				return
			}
			if old == 0 {
				won = 1
			}
		}
		s, sb := comm.Alloc(8)
		r, rb := comm.Alloc(8)
		mpi.PutInt64(sb, 0, won)
		comm.Allreduce(s, r, mpi.Int64, mpi.Sum)
		if got := mpi.GetInt64(rb, 0); got != 1 {
			t.Errorf("winners = %d, want exactly 1", got)
		}
	})
}

func TestOneSidedBasicTransportRejected(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 2, Transport: cluster.TransportBasic})
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(64)
		if _, err := comm.WinCreate(buf); err == nil {
			t.Error("WinCreate on the basic design should fail")
		}
		comm.Barrier()
	})
}

// TestOneSidedLazyConnect creates a window under lazy connection
// management: window creation is the first use, so it must establish the
// connections itself (a stub endpoint exposes no verbs resources).
func TestOneSidedLazyConnect(t *testing.T) {
	c := cluster.MustNew(cluster.Config{
		NP: 4, Transport: cluster.TransportZeroCopy, ConnectMode: cluster.ConnectLazy,
	})
	defer c.Close()
	var got int64
	c.Launch(func(comm *mpi.Comm) {
		buf, b := comm.Alloc(64)
		mpi.PutInt64(b, 0, int64(10+comm.Rank()))
		win, err := comm.WinCreate(buf)
		if err != nil {
			panic(err)
		}
		win.Fence()
		if comm.Rank() == 0 {
			dst, db := comm.Alloc(8)
			if err := win.Get(dst, 3, 0); err != nil {
				panic(err)
			}
			win.Fence()
			got = mpi.GetInt64(db, 0)
		} else {
			win.Fence()
		}
	})
	if got != 13 {
		t.Fatalf("one-sided Get over lazy connections read %d, want 13", got)
	}
	if ms := c.MemStats(); ms.Connections != 12 {
		t.Errorf("window creation established %d endpoints, want the full 12 (windows grant all-to-all access)", ms.Connections)
	}
}

// TestOneSidedSRQUnsupported documents the SRQ eager mode's limitation:
// its connections expose no raw channel endpoint, so window creation must
// fail with a clear error instead of panicking downstream.
func TestOneSidedSRQUnsupported(t *testing.T) {
	c := cluster.MustNew(cluster.Config{
		NP: 2, Transport: cluster.TransportZeroCopy,
		Chan: rdmachan.Config{UseSRQ: true},
	})
	defer c.Close()
	errs := make([]error, 2)
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(64)
		_, errs[comm.Rank()] = comm.WinCreate(buf)
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: WinCreate over SRQ mode succeeded; want a clear unsupported error", r)
		}
	}
}

// TestOneSidedMultiRail: a window on a two-rail connection lives on rail 0
// and shares the connection's completion router with striped rendezvous
// traffic — Put, Get, FetchAdd and Fence run while 256 KB Sendrecvs stripe
// over both rails, on the over-channel and the direct CH3 design.
func TestOneSidedMultiRail(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			const np, big = 4, 256 << 10
			c := cluster.MustNew(cluster.Config{NP: np, Transport: tr, RailsPerNode: 2})
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				rank := comm.Rank()
				right, left := (rank+1)%np, (rank+np-1)%np
				winBuf, wb := comm.Alloc(1024)
				win, err := comm.WinCreate(winBuf)
				if err != nil {
					t.Errorf("WinCreate at RailsPerNode 2: %v", err)
					return
				}
				sbuf, sb := comm.Alloc(big)
				rbuf, rb := comm.Alloc(big)
				local, lb := comm.Alloc(64)
				got, gb := comm.Alloc(64)
				for round := 0; round < 3; round++ {
					for i := range sb {
						sb[i] = byte(rank + i*7 + round)
					}
					for i := range lb {
						lb[i] = byte(50 + rank + round)
					}
					reqs := []*mpi.Request{comm.Irecv(rbuf, left, 5), comm.Isend(sbuf, right, 5)}
					if err := win.Put(local, right, 64); err != nil {
						t.Errorf("Put: %v", err)
					}
					if _, err := win.FetchAdd(right, 0, 1); err != nil {
						t.Errorf("FetchAdd: %v", err)
					}
					if err := win.Fence(); err != nil {
						t.Errorf("Fence: %v", err)
					}
					if err := win.Get(got, left, 64); err != nil {
						t.Errorf("Get: %v", err)
					}
					if err := win.Fence(); err != nil {
						t.Errorf("Fence: %v", err)
					}
					comm.WaitAll(reqs...)
					for i := 0; i < big; i += 4093 {
						if rb[i] != byte(left+i*7+round) {
							t.Errorf("rank %d round %d: striped payload byte %d corrupted", rank, round, i)
							return
						}
					}
					// Our window holds left's put; we read left's window,
					// which holds the put of the rank to its left.
					if wb[64] != byte(50+left+round) || gb[0] != byte(50+(left+np-1)%np+round) {
						t.Errorf("rank %d round %d: window byte %d, got byte %d", rank, round, wb[64], gb[0])
						return
					}
					comm.Barrier() // the next round's put must not overtake this check
				}
				if n := mpi.GetInt64(wb, 0); n != 3 {
					t.Errorf("rank %d: counter %d after 3 FetchAdds", rank, n)
				}
			})
			if tr == cluster.TransportCH3 {
				if st := c.RegCacheStats(); st.Misses == 0 {
					t.Error("no pin-down cache traffic: the rendezvous did not run")
				}
			}
		})
	}
}

// TestOneSidedWithRDMADirect interleaves window operations with forced
// RDMA-direct allreduces on one communicator: both post signaled work on the
// same queue pairs, and each must see exactly its own completions — a Put
// still in flight when the allreduce starts is the window's to reap.
func TestOneSidedWithRDMADirect(t *testing.T) {
	tun := mpi.Tuning{Allreduce: "rdma-direct"}
	const np = 4
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy, Tuning: &tun})
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		rank := comm.Rank()
		right, left := (rank+1)%np, (rank+np-1)%np
		winBuf, wb := comm.Alloc(64 << 10)
		win, err := comm.WinCreate(winBuf)
		if err != nil {
			t.Errorf("WinCreate: %v", err)
			return
		}
		local, lb := comm.Alloc(32 << 10)
		send, sb := comm.Alloc(8)
		recv, rb := comm.Alloc(8)
		for round := 0; round < 4; round++ {
			for i := range lb {
				lb[i] = byte(rank + round + i)
			}
			if err := win.Put(local, right, 0); err != nil {
				t.Errorf("Put: %v", err)
			}
			mpi.PutInt64(sb, 0, int64(rank+round))
			comm.Allreduce(send, recv, mpi.Int64, mpi.Sum)
			if got, want := mpi.GetInt64(rb, 0), int64(np*(np-1)/2+np*round); got != want {
				t.Errorf("rank %d round %d: allreduce %d, want %d", rank, round, got, want)
			}
			if err := win.Fence(); err != nil {
				t.Errorf("Fence: %v", err)
			}
			if wb[0] != byte(left+round) || wb[32<<10-1] != byte(left+round+32<<10-1) {
				t.Errorf("rank %d round %d: put from %d did not land", rank, round, left)
			}
			comm.Barrier() // the next round's put must not overtake this check
		}
		if comm.RDMADirectCalls() != 4 {
			t.Errorf("rank %d: %d RDMA-direct calls, want 4", rank, comm.RDMADirectCalls())
		}
	})
}

// TestWinCreatePendingWildcardRecv: window creation swaps its (addr, rkey)
// pairs on the collective context, so a user receive with AnyTag posted
// before WinCreate can neither swallow the handshake nor miss the user
// message meant for it.
func TestWinCreatePendingWildcardRecv(t *testing.T) {
	c := cluster.MustNew(cluster.Config{NP: 2, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	got := int32(-1)
	c.Launch(func(comm *mpi.Comm) {
		buf, _ := comm.Alloc(16)
		winBuf, _ := comm.Alloc(64)
		if comm.Rank() == 0 {
			req := comm.Irecv(buf, 1, mpi.AnyTag)
			if _, err := comm.WinCreate(winBuf); err != nil {
				t.Errorf("WinCreate: %v", err)
			}
			got = comm.Wait(req).Tag
			return
		}
		if _, err := comm.WinCreate(winBuf); err != nil {
			t.Errorf("WinCreate: %v", err)
		}
		comm.Send(buf, 0, 5)
	})
	if got != 5 {
		t.Fatalf("the pending user receive matched tag %d, want the user's tag 5", got)
	}
}
