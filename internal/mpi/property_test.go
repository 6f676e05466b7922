package mpi_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/rdmachan"
)

// TestRandomTrafficProperty drives random point-to-point traffic patterns
// through the zero-copy and CH3 transports and checks every payload
// byte-for-byte: random sizes straddling the eager/rendezvous threshold,
// random tags, interleaved non-blocking operations.
func TestRandomTrafficProperty(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*7 + 1))
				nMsgs := 2 + rng.Intn(5)
				sizes := make([]int, nMsgs)
				for i := range sizes {
					// Straddle the 32K threshold: 1 B … 128 KB.
					sizes[i] = 1 + rng.Intn(128<<10)
				}
				c := cluster.MustNew(cluster.Config{NP: 2, Transport: tr})
				var want, got [][]byte
				c.Launch(func(comm *mpi.Comm) {
					if comm.Rank() == 0 {
						var reqs []*mpi.Request
						for i, s := range sizes {
							buf, b := comm.Alloc(s)
							rand.New(rand.NewSource(int64(i))).Read(b)
							want = append(want, b)
							reqs = append(reqs, comm.Isend(buf, 1, i))
						}
						comm.WaitAll(reqs...)
					} else {
						var reqs []*mpi.Request
						for i, s := range sizes {
							buf, b := comm.Alloc(s)
							got = append(got, b)
							reqs = append(reqs, comm.Irecv(buf, 0, i))
						}
						comm.WaitAll(reqs...)
					}
				})
				c.Close()
				for i := range want {
					if !bytes.Equal(want[i], got[i]) {
						t.Fatalf("trial %d msg %d (size %d) corrupted", trial, i, sizes[i])
					}
				}
			}
		})
	}
}

// TestBufferReuseProperty: a blocking send that has returned has gathered
// its payload — the sender rewrites one buffer after every Send, with random
// sizes on both sides of every transport's rendezvous switch, and the
// receiver must see each message as it was when it was sent. Under -tags
// ibverify the same runs prove no posted buffer changed before its
// completion.
func TestBufferReuseProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  cluster.Config
	}{
		{"zerocopy", cluster.Config{Transport: cluster.TransportZeroCopy}},
		{"ch3", cluster.Config{Transport: cluster.TransportCH3}},
		{"ch3-rails2", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 2}},
		{"lazy-srq", cluster.Config{Transport: cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy, Chan: rdmachan.Config{UseSRQ: true}}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			sizes := make([]int, 12)
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(160<<10)
			}
			tc.cfg.NP = 2
			c := cluster.MustNew(tc.cfg)
			defer c.Close()
			c.Launch(func(comm *mpi.Comm) {
				buf, b := comm.Alloc(160 << 10)
				for i, n := range sizes {
					if comm.Rank() == 0 {
						for j := range b[:n] {
							b[j] = byte(i*31 + j)
						}
						comm.Send(mpi.Slice(buf, 0, n), 1, i)
						continue
					}
					comm.Recv(mpi.Slice(buf, 0, n), 0, i)
					for j := 0; j < n; j++ {
						if b[j] != byte(i*31+j) {
							t.Errorf("message %d (%d bytes): byte %d is %d, want %d — a later send's bytes",
								i, n, j, b[j], byte(i*31+j))
							break // keep receiving: the sender is blocked on us
						}
					}
				}
			})
		})
	}
}

// TestCollectiveAgreementProperty: for random payload sizes, Bcast,
// Allgather and Alltoall must deliver identical data regardless of
// transport, and Allreduce must equal the serially computed reduction.
func TestCollectiveAgreementProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		np := []int{2, 4, 8}[trial%3]
		n := 8 * (1 + rng.Intn(2048)) // multiple of 8 up to 16 KB
		var reference [][]byte
		for ti, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
			c := cluster.MustNew(cluster.Config{NP: np, Transport: tr})
			results := make([][]byte, np)
			c.Launch(func(comm *mpi.Comm) {
				rank := comm.Rank()
				send, sb := comm.Alloc(n)
				for i := 0; i < n/8; i++ {
					mpi.PutFloat64(sb, i, float64(rank+1)*float64(i+1))
				}
				recv, rb := comm.Alloc(n)
				comm.Allreduce(send, recv, mpi.Float64, mpi.Sum)

				all, ab := comm.Alloc(n * np)
				comm.Allgather(send, all)

				out := make([]byte, n+n*np)
				copy(out, rb)
				copy(out[n:], ab)
				results[rank] = out
			})
			c.Close()
			// Every rank must agree with rank 0.
			for r := 1; r < np; r++ {
				if !bytes.Equal(results[0], results[r]) {
					t.Fatalf("np=%d %v: rank %d disagrees", np, tr, r)
				}
			}
			// Check the Allreduce block against the closed form.
			for i := 0; i < n/8; i++ {
				var want float64
				for r := 0; r < np; r++ {
					want += float64(r+1) * float64(i+1)
				}
				if got := mpi.GetFloat64(results[0][:n], i); got != want {
					t.Fatalf("allreduce[%d] = %v, want %v", i, got, want)
				}
			}
			if ti == 0 {
				reference = results
			} else if !bytes.Equal(reference[0], results[0]) {
				t.Fatalf("np=%d: transports disagree on collective results", np)
			}
		}
	}
}

// TestManyRanksStress runs a dense communication pattern on 8 ranks:
// every rank sends to every other rank simultaneously, with sizes mixing
// eager and rendezvous paths.
func TestManyRanksStress(t *testing.T) {
	const np = 8
	c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
	defer c.Close()
	var ok [np]bool
	c.Launch(func(comm *mpi.Comm) {
		rank := comm.Rank()
		var reqs []*mpi.Request
		recvBufs := make([][]byte, np)
		for peer := 0; peer < np; peer++ {
			if peer == rank {
				continue
			}
			size := 1000 * (peer + 1) * (rank + 1) // up to ~56 KB
			sbuf, sb := comm.Alloc(size)
			for i := range sb {
				sb[i] = byte(rank*37 + peer*11 + i)
			}
			rsize := 1000 * (rank + 1) * (peer + 1)
			rbuf, rb := comm.Alloc(rsize)
			recvBufs[peer] = rb
			reqs = append(reqs, comm.Irecv(rbuf, peer, peer*100+rank))
			reqs = append(reqs, comm.Isend(sbuf, peer, rank*100+peer))
		}
		comm.WaitAll(reqs...)
		good := true
		for peer := 0; peer < np; peer++ {
			if peer == rank {
				continue
			}
			rb := recvBufs[peer]
			for i := 0; i < len(rb); i += 509 {
				if rb[i] != byte(peer*37+rank*11+i) {
					good = false
				}
			}
		}
		ok[rank] = good
	})
	for r, g := range ok {
		if !g {
			t.Fatalf("rank %d saw corrupted traffic", r)
		}
	}
}
