package mpi_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

var allTransports = []cluster.Transport{
	cluster.TransportBasic,
	cluster.TransportPiggyback,
	cluster.TransportPipeline,
	cluster.TransportZeroCopy,
	cluster.TransportCH3,
}

func TestSendRecvAllTransports(t *testing.T) {
	for _, tr := range allTransports {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			sizes := []int{0, 1, 4, 1024, 16 << 10, 200 << 10}
			if tr == cluster.TransportBasic {
				sizes = []int{0, 1, 4, 1024, 30 << 10}
			}
			for _, size := range sizes {
				ok := false
				launch(t, scenario.Scenario{Config: cluster.Config{NP: 2, Transport: tr}}, func(comm *mpi.Comm) {
					switch comm.Rank() {
					case 0:
						buf, b := comm.Alloc(size + 1)
						for i := 0; i < size; i++ {
							b[i] = byte(i*13 + 7)
						}
						comm.Send(mpi.Slice(buf, 0, size), 1, 42)
					case 1:
						buf, b := comm.Alloc(size + 1)
						st := comm.Recv(mpi.Slice(buf, 0, size), 0, 42)
						if st.Source != 0 || st.Tag != 42 || st.Len != size {
							t.Errorf("size %d: status = %+v", size, st)
							return
						}
						for i := 0; i < size; i++ {
							if b[i] != byte(i*13+7) {
								t.Errorf("size %d: corrupt at %d", size, i)
								return
							}
						}
						ok = true
					}
				})
				if !ok {
					t.Fatalf("size %d: receive did not complete", size)
				}
			}
		})
	}
}

func TestUnexpectedMessageBuffered(t *testing.T) {
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			const size = 2048 // eager on both transports
			launch(t, scenario.Scenario{Config: cluster.Config{NP: 2, Transport: tr}}, func(comm *mpi.Comm) {
				if comm.Rank() == 0 {
					buf, b := comm.Alloc(size)
					for i := range b {
						b[i] = byte(i)
					}
					comm.Send(buf, 1, 5)
					// Second message, different tag, sent early too.
					buf2, b2 := comm.Alloc(size)
					for i := range b2 {
						b2[i] = byte(i * 3)
					}
					comm.Send(buf2, 1, 6)
				} else {
					// Give the sends time to land unexpected.
					comm.Compute(80000) // ~200µs: let the sends land unexpected
					rbuf2, rb2 := comm.Alloc(size)
					comm.Recv(rbuf2, 0, 6) // reversed order: tag 6 first
					rbuf, rb := comm.Alloc(size)
					comm.Recv(rbuf, 0, 5)
					for i := 0; i < size; i++ {
						if rb[i] != byte(i) || rb2[i] != byte(i*3) {
							t.Error("unexpected-path payload corrupted")
							return
						}
					}
				}
			})
		})
	}
}

func TestRendezvousUnexpectedLarge(t *testing.T) {
	// A large message sent before the receive is posted: the zero-copy
	// channel buffers it (the pipe cannot defer), the CH3 design defers the
	// CTS and delivers with no copy.
	for _, tr := range []cluster.Transport{cluster.TransportZeroCopy, cluster.TransportCH3} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			const size = 300 << 10
			launch(t, scenario.Scenario{Config: cluster.Config{NP: 2, Transport: tr}}, func(comm *mpi.Comm) {
				if comm.Rank() == 0 {
					buf, b := comm.Alloc(size)
					rand.New(rand.NewSource(7)).Read(b)
					comm.Send(buf, 1, 9)
				} else {
					comm.Compute(80000) // ~200µs: ensure RTS arrives before the post
					rbuf, rb := comm.Alloc(size)
					comm.Recv(rbuf, 0, 9)
					want := make([]byte, size)
					rand.New(rand.NewSource(7)).Read(want)
					if !bytes.Equal(rb, want) {
						t.Error("late-posted large receive corrupted")
					}
				}
			})
		})
	}
}

func TestWildcards(t *testing.T) {
	launch(t, scenario.Layout("flat-np3"), func(comm *mpi.Comm) {
		switch comm.Rank() {
		case 1, 2:
			buf, b := comm.Alloc(8)
			mpi.PutInt64(b, 0, int64(comm.Rank()))
			comm.Send(buf, 0, 70+comm.Rank())
		case 0:
			seen := map[int64]bool{}
			for i := 0; i < 2; i++ {
				buf, b := comm.Alloc(8)
				st := comm.Recv(buf, mpi.AnySource, mpi.AnyTag)
				v := mpi.GetInt64(b, 0)
				if int32(v) != st.Source || int(st.Tag) != 70+int(v) {
					t.Errorf("status %+v does not match payload %d", st, v)
				}
				seen[v] = true
			}
			if !seen[1] || !seen[2] {
				t.Error("wildcard receive missed a sender")
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	launch(t, scenario.Layout("flat-np2"), func(comm *mpi.Comm) {
		const n = 4
		const size = 64 << 10
		if comm.Rank() == 0 {
			var reqs []*mpi.Request
			for i := 0; i < n; i++ {
				buf, b := comm.Alloc(size)
				for j := range b {
					b[j] = byte(i + j)
				}
				reqs = append(reqs, comm.Isend(buf, 1, i))
			}
			comm.WaitAll(reqs...)
		} else {
			var reqs []*mpi.Request
			var bufs [][]byte
			for i := 0; i < n; i++ {
				buf, b := comm.Alloc(size)
				bufs = append(bufs, b)
				reqs = append(reqs, comm.Irecv(buf, 0, i))
			}
			comm.WaitAll(reqs...)
			for i, b := range bufs {
				for j := 0; j < size; j += 997 {
					if b[j] != byte(i+j) {
						t.Errorf("message %d corrupt at %d", i, j)
						return
					}
				}
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	launch(t, scenario.Layout("flat-np4"), func(comm *mpi.Comm) {
		size, rank := comm.Size(), comm.Rank()
		right := (rank + 1) % size
		left := (rank - 1 + size) % size
		sb, sbb := comm.Alloc(8)
		rb, rbb := comm.Alloc(8)
		mpi.PutInt64(sbb, 0, int64(rank))
		comm.Sendrecv(sb, right, 3, rb, left, 3)
		if got := mpi.GetInt64(rbb, 0); got != int64(left) {
			t.Errorf("rank %d: got %d from left, want %d", rank, got, left)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var after [8]float64
	var before [8]float64
	launch(t, scenario.Scenario{Config: cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy}}, func(comm *mpi.Comm) {
		r := comm.Rank()
		// Stagger arrivals.
		comm.Compute(float64(r) * 1e3)
		before[r] = comm.Wtime()
		comm.Barrier()
		after[r] = comm.Wtime()
	})
	var maxBefore float64
	for _, b := range before {
		maxBefore = math.Max(maxBefore, b)
	}
	for r, a := range after {
		if a < maxBefore {
			t.Errorf("rank %d left the barrier at %v before the last arrival %v", r, a, maxBefore)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, np := range []int{2, 4, 5, 8} {
		c := cluster.MustNew(cluster.Config{NP: np, Transport: cluster.TransportZeroCopy})
		defer c.Close()
		for root := 0; root < np; root++ {
			root := root
			c.Launch(func(comm *mpi.Comm) {
				const size = 12345
				buf, b := comm.Alloc(size)
				if comm.Rank() == root {
					for i := range b {
						b[i] = byte(i ^ root)
					}
				}
				comm.Bcast(buf, root)
				for i := range b {
					if b[i] != byte(i^root) {
						t.Errorf("np %d root %d rank %d: bcast corrupt", np, root, comm.Rank())
						return
					}
				}
			})
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, np := range []int{2, 3, 8} {
		np := np
		launch(t, scenario.Scenario{Config: cluster.Config{NP: np, Transport: cluster.TransportZeroCopy}}, func(comm *mpi.Comm) {
			const n = 64
			send, sb := comm.Alloc(n * 8)
			recv, rb := comm.Alloc(n * 8)
			for i := 0; i < n; i++ {
				mpi.PutFloat64(sb, i, float64(comm.Rank()+i))
			}
			comm.Allreduce(send, recv, mpi.Float64, mpi.Sum)
			for i := 0; i < n; i++ {
				want := float64(np*i) + float64(np*(np-1))/2
				if got := mpi.GetFloat64(rb, i); math.Abs(got-want) > 1e-9 {
					t.Errorf("np %d rank %d: allreduce[%d] = %v, want %v", np, comm.Rank(), i, got, want)
					return
				}
			}
			// Max reduce of int64.
			s2, s2b := comm.Alloc(8)
			r2, r2b := comm.Alloc(8)
			mpi.PutInt64(s2b, 0, int64(comm.Rank()*10))
			comm.Reduce(s2, r2, mpi.Int64, mpi.Max, 0)
			if comm.Rank() == 0 {
				if got := mpi.GetInt64(r2b, 0); got != int64((np-1)*10) {
					t.Errorf("reduce max = %d, want %d", got, (np-1)*10)
				}
			}
		})
	}
}

func TestGatherScatter(t *testing.T) {
	launch(t, scenario.Layout("flat-np4"), func(comm *mpi.Comm) {
		const n = 256
		rank, size := comm.Rank(), comm.Size()
		send, sb := comm.Alloc(n)
		for i := range sb {
			sb[i] = byte(rank*100 + i%50)
		}
		var recv mpi.Buffer
		var rbb []byte
		if rank == 2 {
			recv, rbb = comm.Alloc(n * size)
		} else {
			recv, _ = comm.Alloc(n * size) // non-roots may pass anything
		}
		comm.Gather(send, recv, 2)
		if rank == 2 {
			for r := 0; r < size; r++ {
				for i := 0; i < n; i++ {
					if rbb[r*n+i] != byte(r*100+i%50) {
						t.Errorf("gather block %d corrupt", r)
						return
					}
				}
			}
		}
		comm.Barrier()
		// Scatter back out.
		out, ob := comm.Alloc(n)
		comm.Scatter(recv, out, 2)
		if rank == 2 {
			for i := 0; i < n; i++ {
				if ob[i] != byte(rank*100+i%50) {
					t.Error("scatter self block corrupt")
					return
				}
			}
		}
	})
}

func TestAllgatherRing(t *testing.T) {
	launch(t, scenario.Layout("flat-np6"), func(comm *mpi.Comm) {
		const n = 512
		rank, size := comm.Rank(), comm.Size()
		send, sb := comm.Alloc(n)
		for i := range sb {
			sb[i] = byte(rank ^ i)
		}
		recv, rb := comm.Alloc(n * size)
		comm.Allgather(send, recv)
		for r := 0; r < size; r++ {
			for i := 0; i < n; i++ {
				if rb[r*n+i] != byte(r^i) {
					t.Errorf("rank %d: allgather block %d corrupt", rank, r)
					return
				}
			}
		}
	})
}

func TestAlltoallPairwise(t *testing.T) {
	launchTuned(t, scenario.Scenario{Config: cluster.Config{NP: 8, Transport: cluster.TransportZeroCopy}}, &mpi.Tuning{Alltoall: "pairwise"}, func(comm *mpi.Comm) {
		const n = 1024
		rank, size := comm.Rank(), comm.Size()
		send, sb := comm.Alloc(n * size)
		recv, rb := comm.Alloc(n * size)
		for to := 0; to < size; to++ {
			for i := 0; i < n; i++ {
				sb[to*n+i] = byte(rank*7 + to*3 + i)
			}
		}
		comm.Alltoall(send, recv)
		for from := 0; from < size; from++ {
			for i := 0; i < n; i++ {
				if rb[from*n+i] != byte(from*7+rank*3+i) {
					t.Errorf("rank %d: alltoall block from %d corrupt", rank, from)
					return
				}
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	launch(t, scenario.Layout("flat-np4"), func(comm *mpi.Comm) {
		rank, size := comm.Rank(), comm.Size()
		sendCounts := make([]int, size)
		recvCounts := make([]int, size)
		for to := 0; to < size; to++ {
			sendCounts[to] = 100*(rank+1) + 10*to
		}
		for from := 0; from < size; from++ {
			recvCounts[from] = 100*(from+1) + 10*rank
		}
		totalS, totalR := 0, 0
		for i := 0; i < size; i++ {
			totalS += sendCounts[i]
			totalR += recvCounts[i]
		}
		send, sb := comm.Alloc(totalS)
		recv, rb := comm.Alloc(totalR)
		off := 0
		for to := 0; to < size; to++ {
			for i := 0; i < sendCounts[to]; i++ {
				sb[off+i] = byte(rank*31 + to*17 + i)
			}
			off += sendCounts[to]
		}
		comm.Alltoallv(send, sendCounts, recv, recvCounts)
		off = 0
		for from := 0; from < size; from++ {
			for i := 0; i < recvCounts[from]; i++ {
				if rb[off+i] != byte(from*31+rank*17+i) {
					t.Errorf("rank %d: alltoallv from %d corrupt", rank, from)
					return
				}
			}
			off += recvCounts[from]
		}
	})
}

func TestLatencyPiggybackVsBasic(t *testing.T) {
	// MPI-level calibration: paper's 18.6 µs basic vs 7.4 µs piggyback vs
	// 7.6 µs zero-copy, 4-byte ping-pong, measured here through the MPI
	// layer alone; bench's claims table holds the same numbers per figure.
	lat := func(tr cluster.Transport) float64 {
		var oneWay float64
		const iters = 20
		launch(t, scenario.Scenario{Config: cluster.Config{NP: 2, Transport: tr}}, func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(4)
			rbuf, _ := comm.Alloc(4)
			if comm.Rank() == 0 {
				comm.Send(buf, 1, 0)
				comm.Recv(rbuf, 1, 0) // warmup
				start := comm.Wtime()
				for i := 0; i < iters; i++ {
					comm.Send(buf, 1, 0)
					comm.Recv(rbuf, 1, 0)
				}
				oneWay = (comm.Wtime() - start) / (2 * iters) * 1e6
			} else {
				for i := 0; i < iters+1; i++ {
					comm.Recv(rbuf, 0, 0)
					comm.Send(buf, 0, 0)
				}
			}
		})
		return oneWay
	}
	basic := lat(cluster.TransportBasic)
	piggy := lat(cluster.TransportPiggyback)
	zc := lat(cluster.TransportZeroCopy)
	t.Logf("MPI 4B latency: basic=%.2fµs piggyback=%.2fµs zerocopy=%.2fµs", basic, piggy, zc)
	if basic < 15 || basic > 22 {
		t.Errorf("basic latency %.2f, want ~18.6µs", basic)
	}
	if piggy < 6.5 || piggy > 8.5 {
		t.Errorf("piggyback latency %.2f, want ~7.4µs", piggy)
	}
	if zc < piggy || zc > piggy+0.8 {
		t.Errorf("zerocopy latency %.2f should be slightly above piggyback %.2f", zc, piggy)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		var endTime float64
		launch(t, scenario.Scenario{Config: cluster.Config{NP: 4, Transport: cluster.TransportZeroCopy}}, func(comm *mpi.Comm) {
			buf, _ := comm.Alloc(32 << 10)
			comm.Bcast(buf, 0)
			comm.Barrier()
			if comm.Rank() == 0 {
				endTime = comm.Wtime()
			}
		})
		return endTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
