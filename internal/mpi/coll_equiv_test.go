package mpi_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/scenario"
)

// Algorithm-equivalence harness: every registered algorithm of every
// collective, forced through the tuning table, must produce results
// bit-identical to the expected values on every test topology — at
// non-power-of-two rank counts, across Int32/Float32/Float64 with
// integer-valued data (so floating-point sums are exact and byte
// comparison is meaningful), and again on a Split sub-communicator. A
// forced algorithm that is inapplicable on a topology (hier on flat
// layouts, rdma-direct on SMP ones) falls back to the flat default, so
// every case must come out right on every topology either way.
//
// The forcing matrix packs one algorithm per collective into each launch
// slot, padding shorter registries with repeats, so every (collective,
// algorithm) pair runs on every topology while launching only
// max-registry-size clusters per topology.

func equivSlots() []mpi.Tuning {
	maxAlgs := 0
	for _, coll := range mpi.Collectives() {
		if n := len(mpi.AlgorithmNames(coll)); n > maxAlgs {
			maxAlgs = n
		}
	}
	slots := make([]mpi.Tuning, maxAlgs)
	for s := range slots {
		for _, coll := range mpi.Collectives() {
			names := mpi.AlgorithmNames(coll)
			slots[s].Force(coll, names[s%len(names)])
		}
	}
	return slots
}

var equivDatatypes = []struct {
	name string
	dt   mpi.Datatype
	put  func(b []byte, i, v int)
}{
	{"int32", mpi.Int32, func(b []byte, i, v int) { mpi.PutInt32(b, i, int32(v)) }},
	{"float32", mpi.Float32, func(b []byte, i, v int) { mpi.PutFloat32(b, i, float32(v)) }},
	{"float64", mpi.Float64, func(b []byte, i, v int) { mpi.PutFloat64(b, i, float64(v)) }},
}

func TestCollAlgorithmEquivalence(t *testing.T) {
	for _, tp := range scenario.Collectives {
		tp := tp
		for _, tun := range equivSlots() {
			tun := tun
			name := tp.Name + "/allreduce=" + tun.Allreduce + ",bcast=" + tun.Bcast
			t.Run(name, func(t *testing.T) {
				launchTuned(t, tp, &tun, func(comm *mpi.Comm) {
					equivChecks(t, comm, "world")
					// The same algorithms must hold on derived communicators:
					// Split re-derives topology, contexts, and — for
					// rdma-direct — a fresh exposure region over the member
					// subset. Odd/even split yields non-trivial sub-groups on
					// every test topology, including size-1 degenerates.
					sub := comm.Split(comm.Rank()%2, comm.Rank())
					equivChecks(t, sub, "split")
				})
			})
		}
	}
}

// TestCollAlgorithmEquivalenceAllgather: every allgather algorithm, and the
// default table, must leave every rank's whole recv buffer — the gathered
// region and the sentinel bytes past it — exactly as allgather/ring does,
// on the flat power-of-two layouts, every collective topology, a
// reversed (non-contiguous) Split half, and a Split in which a third of
// the ranks opt out with a negative colour.
func TestCollAlgorithmEquivalenceAllgather(t *testing.T) {
	for _, tp := range append(scenario.FlatPof2, scenario.Collectives...) {
		var ring [][]byte // ring's buffers, one per rank, cases concatenated
		for _, alg := range append([]string{"ring", ""}, mpi.AlgorithmNames("allgather")...) {
			tp, alg := tp, alg
			t.Run(tp.Name+"/allgather="+alg, func(t *testing.T) {
				got := make([][]byte, tp.Config.NP)
				launchTuned(t, tp, &mpi.Tuning{Allgather: alg}, func(comm *mpi.Comm) {
					size, rank := comm.Size(), comm.Rank()
					gather := func(sub *mpi.Comm, n int) {
						send, sb := comm.Alloc(n)
						recv, rb := comm.Alloc(n*sub.Size() + 7)
						for i := range sb {
							sb[i] = byte(rank*11 + i)
						}
						for i := range rb {
							rb[i] = 0xEE
						}
						sub.Allgather(send, recv)
						got[rank] = append(got[rank], rb...)
					}
					for _, n := range []int{24, 33, 5000} {
						gather(comm, n)
					}
					gather(comm.Split(rank%2, size-rank), 24)
					colour := rank % 3
					if colour == 2 {
						colour = -1 // MPI_UNDEFINED
					}
					sub := comm.Split(colour, rank)
					if (sub == nil) != (colour < 0) {
						t.Errorf("rank %d: colour %d got communicator %v", rank, colour, sub)
					}
					if sub != nil {
						if want := (size + 2 - colour) / 3; sub.Size() != want {
							t.Errorf("rank %d: colour %d sub-communicator has %d ranks, want %d", rank, colour, sub.Size(), want)
						}
						gather(sub, 24)
					}
				})
				if alg == "ring" {
					ring = got
				}
				for r := range got {
					if !bytes.Equal(got[r], ring[r]) {
						t.Errorf("rank %d: buffers differ from allgather/ring's", r)
					}
				}
			})
		}
	}
}

// tableElapsed times one lone Allgather or Alltoall of n-byte blocks on
// tp under the default table (alg "") or a forced algorithm: the
// simulated instant rank 0 leaves the barrier after it. The table's
// choice cannot be seen in the bytes, so the cutoff tests read it off
// this clock — the table takes exactly as long as the algorithm it
// should have picked.
func tableElapsed(coll string, tp scenario.Scenario, n int, alg string) (took float64) {
	cfg := tp.Config
	if alg != "" {
		cfg.Tuning = &mpi.Tuning{}
		cfg.Tuning.Force(coll, alg)
	}
	c := cluster.MustNew(cfg)
	defer c.Close()
	c.Launch(func(comm *mpi.Comm) {
		recv, _ := comm.Alloc(n * tp.Config.NP)
		if coll == "allgather" {
			send, _ := comm.Alloc(n)
			comm.Allgather(send, recv)
		} else {
			send, _ := comm.Alloc(n * tp.Config.NP)
			comm.Alltoall(send, recv)
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			took = comm.Wtime()
		}
	})
	return took
}

// TestAllgatherTableCutoff: the default table is allgather/ring at and
// above the network's block cutoff and the log-step algorithm below it.
func TestAllgatherTableCutoff(t *testing.T) {
	for _, tc := range []struct {
		tp      scenario.Scenario
		logStep string
		cutoff  int
	}{
		{scenario.Layout("flat-np4"), "recursive-doubling", 192 << 10},
		{scenario.Layout("flat-np3"), "bruck", 192 << 10},
		{scenario.Layout("fattree-np8"), "recursive-doubling", 5 << 10},
		{scenario.Layout("fattree-np6"), "bruck", 5 << 10},
	} {
		tc := tc
		t.Run(tc.tp.Name, func(t *testing.T) {
			for _, n := range []int{tc.cutoff - 1, tc.cutoff} {
				want, other := tc.logStep, "ring"
				if n >= tc.cutoff {
					want, other = other, want
				}
				table := tableElapsed("allgather", tc.tp, n, "")
				picked := tableElapsed("allgather", tc.tp, n, want)
				rejected := tableElapsed("allgather", tc.tp, n, other)
				if table != picked || table == rejected {
					t.Errorf("block %d: table took %.9f s, %s %.9f s, %s %.9f s; want the table on %s",
						n, table, want, picked, other, rejected, want)
				}
			}
		})
	}
}

// TestAlltoallTableCutoff: on communicators that span nodes the default
// table is alltoall/scattered below the 32 KiB block cutoff and
// alltoall/pairwise at it; a single-node communicator stays pairwise even
// for short blocks.
func TestAlltoallTableCutoff(t *testing.T) {
	const cutoff = 32 << 10
	for _, tc := range []struct {
		tp   scenario.Scenario
		n    int
		want string
	}{
		{scenario.Layout("flat-np4"), cutoff - 1, "scattered"},
		{scenario.Layout("flat-np4"), cutoff, "pairwise"},
		{scenario.Layout("fattree-np8"), cutoff - 1, "scattered"},
		{scenario.Layout("fattree-np8"), cutoff, "pairwise"},
		{scenario.Layout("smp-2x2"), cutoff - 1, "scattered"},
		{scenario.Layout("smp-2x2"), cutoff, "pairwise"},
		{scenario.Layout("smp-single-node"), 256, "pairwise"},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/block=%d", tc.tp.Name, tc.n), func(t *testing.T) {
			other := "pairwise"
			if tc.want == other {
				other = "scattered"
			}
			table := tableElapsed("alltoall", tc.tp, tc.n, "")
			picked := tableElapsed("alltoall", tc.tp, tc.n, tc.want)
			rejected := tableElapsed("alltoall", tc.tp, tc.n, other)
			if table != picked || table == rejected {
				t.Errorf("table took %.9f s, %s %.9f s, %s %.9f s; want the table on %s",
					table, tc.want, picked, other, rejected, tc.want)
			}
		})
	}
}

// equivChecks runs every collective once per datatype/size on comm and
// compares results byte-for-byte against locally computed expectations.
func equivChecks(t *testing.T, comm *mpi.Comm, label string) {
	size, rank := comm.Size(), comm.Rank()

	// Bcast: a non-power-of-two payload exercises chunk tails in
	// scatter-allgather, and lengths short against the communicator leave
	// whole tail chunks empty. Every rank must hold the root's bytes, as
	// binomial delivers them.
	root := size - 1
	for _, bn := range []int{977, 1, 4, size - 1, size + 1, 2*size - 1} {
		if bn == 0 {
			continue
		}
		buf, b := comm.Alloc(bn)
		if rank == root {
			for i := range b {
				b[i] = byte(i*7 + 3)
			}
		}
		comm.Bcast(buf, root)
		for i := range b {
			if b[i] != byte(i*7+3) {
				t.Errorf("%s bcast %d B: rank %d wrong byte at %d", label, bn, rank, i)
				break
			}
		}
	}

	comm.Barrier()

	for _, dc := range equivDatatypes {
		es := dc.dt.Size()

		// Reduce at a non-zero root.
		const rn = 13
		send, sb := comm.Alloc(rn * es)
		recv, rb := comm.Alloc(rn * es)
		want := make([]byte, rn*es)
		for i := 0; i < rn; i++ {
			dc.put(sb, i, rank+i+1)
			dc.put(want, i, size*(size-1)/2+size*(i+1)) // sum over ranks of rank+i+1
		}
		comm.Reduce(send, recv, dc.dt, mpi.Sum, root)
		if rank == root && !bytes.Equal(rb, want) {
			t.Errorf("%s reduce/%s: rank %d result differs from expectation", label, dc.name, rank)
		}

		// Allreduce at element counts below and above the power-of-two
		// participant count, so Rabenseifner's range arithmetic sees both
		// zero-size and uneven chunks.
		for _, an := range []int{3, 50} {
			asend, asb := comm.Alloc(an * es)
			arecv, arb := comm.Alloc(an * es)
			awant := make([]byte, an*es)
			for i := 0; i < an; i++ {
				dc.put(asb, i, rank+i+1)
				dc.put(awant, i, size*(size-1)/2+size*(i+1))
			}
			comm.Allreduce(asend, arecv, dc.dt, mpi.Sum)
			if !bytes.Equal(arb, awant) {
				t.Errorf("%s allreduce/%s n=%d: rank %d result differs", label, dc.name, an, rank)
			}
			for i := 0; i < an; i++ {
				dc.put(awant, i, rank+i+1)
			}
			if !bytes.Equal(asb, awant) {
				t.Errorf("%s allreduce/%s n=%d: rank %d send buffer clobbered", label, dc.name, an, rank)
			}
		}
	}

	// Allgather.
	const gn = 33
	gsend, gsb := comm.Alloc(gn)
	grecv, grb := comm.Alloc(gn * size)
	for i := range gsb {
		gsb[i] = byte(rank*11 + i)
	}
	comm.Allgather(gsend, grecv)
	for r := 0; r < size; r++ {
		for i := 0; i < gn; i++ {
			if grb[r*gn+i] != byte(r*11+i) {
				t.Errorf("%s allgather: rank %d block %d wrong at %d", label, rank, r, i)
				return
			}
		}
	}

	// Alltoall: block (src,dst,i) fingerprints catch both misrouted and
	// misplaced blocks.
	const an = 24
	asend, asb := comm.Alloc(an * size)
	arecv, arb := comm.Alloc(an * size)
	for dst := 0; dst < size; dst++ {
		for i := 0; i < an; i++ {
			asb[dst*an+i] = byte(rank*131 + dst*17 + i)
		}
	}
	comm.Alltoall(asend, arecv)
	for src := 0; src < size; src++ {
		for i := 0; i < an; i++ {
			if arb[src*an+i] != byte(src*131+rank*17+i) {
				t.Errorf("%s alltoall: rank %d block from %d wrong at %d", label, rank, src, i)
				return
			}
		}
	}

	comm.Barrier()
}
