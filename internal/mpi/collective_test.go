package mpi_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// topology is one cluster layout under collective test.
type topology struct {
	name string
	np   int
	cpn  int // cores per node; 1 = flat, all-IB
}

// collectiveTopologies covers the paper's flat testbed at non-power-of-two
// rank counts plus the SMP layouts the hierarchical algorithms serve:
// even nodes, an uneven last node, a single all-shm node, and mixed
// shm/IB with a non-power-of-two leader count.
var collectiveTopologies = []topology{
	{"flat-np3", 3, 1},
	{"flat-np5", 5, 1},
	{"flat-np6", 6, 1},
	{"flat-np7", 7, 1},
	{"smp-2x2", 4, 2},
	{"smp-4x2", 8, 2},
	{"smp-4x4", 16, 4},
	{"smp-uneven-5ranks", 5, 2}, // nodes of 2,2,1
	{"smp-uneven-7ranks", 7, 4}, // nodes of 4,3
	{"smp-single-node", 4, 4},   // degenerate: all ranks over shm
	{"smp-3nodes-np6", 6, 2},    // non-power-of-two leader count
}

func launch(t *testing.T, tp topology, body func(comm *mpi.Comm)) {
	t.Helper()
	launchTuned(t, tp, nil, body)
}

// launchTuned is launch with a forced tuning table (nil = the default).
func launchTuned(t *testing.T, tp topology, tun *mpi.Tuning, body func(comm *mpi.Comm)) {
	t.Helper()
	c := cluster.MustNew(cluster.Config{
		NP:           tp.np,
		CoresPerNode: tp.cpn,
		Transport:    cluster.TransportZeroCopy,
		Tuning:       tun,
	})
	defer c.Close()
	c.Launch(body)
}

func TestBcastAllTopologies(t *testing.T) {
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			const size = 1000 // non-power-of-two payload
			for root := 0; root < tp.np; root++ {
				root := root
				launch(t, tp, func(comm *mpi.Comm) {
					buf, b := comm.Alloc(size)
					if comm.Rank() == root {
						for i := range b {
							b[i] = byte(i*7 + root)
						}
					}
					comm.Bcast(buf, root)
					for i := range b {
						if b[i] != byte(i*7+root) {
							t.Errorf("root %d rank %d: wrong byte at %d", root, comm.Rank(), i)
							return
						}
					}
				})
			}
		})
	}
}

func TestReduceAllTopologies(t *testing.T) {
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			const n = 17 // non-power-of-two element count
			// The dispatched path (flat below the size cutoff) and the
			// hierarchical algorithm forced must both agree.
			for _, tun := range []*mpi.Tuning{nil, {Reduce: "hier"}} {
				for _, root := range []int{0, tp.np - 1, tp.np / 2} {
					root := root
					launchTuned(t, tp, tun, func(comm *mpi.Comm) {
						send, sb := comm.Alloc(8 * n)
						recv, rb := comm.Alloc(8 * n)
						for i := 0; i < n; i++ {
							mpi.PutInt64(sb, i, int64(comm.Rank()+i))
						}
						comm.Reduce(send, recv, mpi.Int64, mpi.Sum, root)
						if comm.Rank() != root {
							return
						}
						np := int64(comm.Size())
						for i := 0; i < n; i++ {
							want := np*(np-1)/2 + np*int64(i)
							if got := mpi.GetInt64(rb, i); got != want {
								t.Errorf("tuning %+v root %d elem %d: got %d want %d", tun, root, i, got, want)
								return
							}
						}
						// The caller's send buffer must be untouched.
						for i := 0; i < n; i++ {
							if mpi.GetInt64(sb, i) != int64(comm.Rank()+i) {
								t.Errorf("root %d: send buffer clobbered at %d", root, i)
								return
							}
						}
					})
				}
			}
		})
	}
}

func TestAllreduceAllTopologies(t *testing.T) {
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			launch(t, tp, func(comm *mpi.Comm) {
				send, sb := comm.Alloc(8)
				recv, rb := comm.Alloc(8)
				mpi.PutInt64(sb, 0, int64(comm.Rank()+1))
				comm.Allreduce(send, recv, mpi.Int64, mpi.Max)
				if got := mpi.GetInt64(rb, 0); got != int64(comm.Size()) {
					t.Errorf("rank %d: max = %d want %d", comm.Rank(), got, comm.Size())
				}
			})
		})
	}
}

func TestAllgatherAllTopologies(t *testing.T) {
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			const n = 96
			launch(t, tp, func(comm *mpi.Comm) {
				size, rank := comm.Size(), comm.Rank()
				send, sb := comm.Alloc(n)
				recv, rb := comm.Alloc(n * size)
				for i := range sb {
					sb[i] = byte(rank*11 + i)
				}
				comm.Allgather(send, recv)
				for r := 0; r < size; r++ {
					for i := 0; i < n; i++ {
						if rb[r*n+i] != byte(r*11+i) {
							t.Errorf("rank %d: block %d wrong at %d", rank, r, i)
							return
						}
					}
				}
			})
		})
	}
}

// TestAllgatherOversizedRecv: recv.Len > n*size is legal (the contract is
// only a lower bound) and may differ across ranks; bytes past the
// allgather region must stay untouched. Regression test for the
// hierarchical stage-3 broadcast, which once moved the leader's whole
// recv buffer instead of the n*size region.
func TestAllgatherOversizedRecv(t *testing.T) {
	for _, tp := range []topology{{"flat-np4", 4, 1}, {"smp-2x2", 4, 2}, {"smp-4x2", 8, 2}} {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			const n = 32
			launch(t, tp, func(comm *mpi.Comm) {
				size, rank := comm.Size(), comm.Rank()
				pad := 0
				if rank%2 == 0 {
					pad = 64 // uneven slack across ranks
				}
				send, sb := comm.Alloc(n)
				recv, rb := comm.Alloc(n*size + pad)
				for i := range sb {
					sb[i] = byte(rank + i)
				}
				for i := n * size; i < len(rb); i++ {
					rb[i] = 0xEE
				}
				comm.Allgather(send, recv)
				for r := 0; r < size; r++ {
					for i := 0; i < n; i++ {
						if rb[r*n+i] != byte(r+i) {
							t.Errorf("rank %d: block %d wrong at %d", rank, r, i)
							return
						}
					}
				}
				for i := n * size; i < len(rb); i++ {
					if rb[i] != 0xEE {
						t.Errorf("rank %d: slack byte %d clobbered", rank, i)
						return
					}
				}
			})
		})
	}
}

func TestBarrierAllTopologies(t *testing.T) {
	for _, tp := range collectiveTopologies {
		tp := tp
		t.Run(tp.name, func(t *testing.T) {
			// A rank that computes long before its first barrier must not
			// let any other rank run ahead through later barriers: between
			// consecutive barriers every rank observes every other rank's
			// arrival. Track phases in shared test state.
			const rounds = 4
			phase := make([]int, tp.np)
			launch(t, tp, func(comm *mpi.Comm) {
				rank := comm.Rank()
				for round := 0; round < rounds; round++ {
					if (rank+round)%3 == 0 {
						comm.Compute(5e5) // stagger arrivals
					}
					comm.Barrier()
					for r := 0; r < comm.Size(); r++ {
						if phase[r] < round {
							t.Errorf("round %d rank %d: rank %d has not arrived (phase %d)",
								round, rank, r, phase[r])
							return
						}
					}
					phase[rank]++
				}
			})
		})
	}
}

// TestHierMatchesFlat pins the hierarchical algorithms to the flat ones:
// same data in, same data out, on a mixed shm/IB layout.
func TestHierMatchesFlat(t *testing.T) {
	tp := topology{"smp-3x2", 6, 2}
	const size = 512
	flat := make([]byte, size)
	hier := make([]byte, size)
	for _, mode := range []string{"flat", "hier"} {
		mode := mode
		var tun *mpi.Tuning
		if mode == "flat" {
			tun = &mpi.Tuning{Bcast: "binomial"}
		}
		launchTuned(t, tp, tun, func(comm *mpi.Comm) {
			buf, b := comm.Alloc(size)
			if comm.Rank() == 1 {
				for i := range b {
					b[i] = byte(i * 3)
				}
			}
			comm.Bcast(buf, 1)
			if comm.Rank() == 5 {
				if mode == "flat" {
					copy(flat, b)
				} else {
					copy(hier, b)
				}
			}
		})
	}
	for i := range flat {
		if flat[i] != hier[i] {
			t.Fatalf("flat and hierarchical Bcast disagree at byte %d", i)
		}
	}
}
