package bench

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// Collective algorithm sweeps: every registered algorithm of a collective
// measured on the same layout, one series per algorithm — the data behind
// the per-comm tuning table's choices (the registry lives in
// internal/mpi/algorithms.go; the figure table's coll-* rows and
// ablation-coll-alg are these sweeps).

// The ablation layout is 4 nodes × 4 cores, rooted at rank 5, a mid-node
// rank. That choice is load-bearing: with block placement, power-of-two
// geometry and root 0, the flat binomial tree happens to be
// hierarchy-optimal (its high-bit edges cross nodes, its low-bit edges
// stay inside them) and the hierarchical and flat algorithms produce
// identical schedules. A general root rotates the binomial tree off the
// node boundaries and most flat edges become InfiniBand round trips, which
// is what applications rooting collectives at arbitrary ranks actually
// experience. DESIGN.md §6 discusses this.
const (
	collAlgNP   = 16
	collAlgCPN  = 4
	collAlgRoot = 5
)

// collRunner returns the measured operation for one collective; buf is
// the CollectiveTime payload.
func collRunner(coll string, np, root int) func(comm *mpi.Comm, buf mpi.Buffer) {
	switch coll {
	case "bcast":
		return func(comm *mpi.Comm, buf mpi.Buffer) { comm.Bcast(buf, root) }
	case "reduce":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(max(buf.Len, 8))
			comm.Reduce(buf, recv, mpi.Byte, mpi.Sum, root)
		}
	case "allgather":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(max(buf.Len*np, 8))
			comm.Allgather(buf, recv)
		}
	case "allreduce":
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			recv, _ := comm.Alloc(max(buf.Len, 1))
			comm.Allreduce(buf, mpi.Slice(recv, 0, buf.Len), mpi.Byte, mpi.Sum)
		}
	case "alltoall":
		// buf is the per-destination block, as in allgather's per-rank view.
		return func(comm *mpi.Comm, buf mpi.Buffer) {
			n := max(buf.Len, 1)
			send, _ := comm.Alloc(n * np)
			recv, _ := comm.Alloc(n * np)
			comm.Alltoall(send, recv)
		}
	case "barrier":
		return func(comm *mpi.Comm, buf mpi.Buffer) { comm.Barrier() }
	}
	panic(fmt.Sprintf("bench: unknown collective %q", coll))
}

// CollectiveTime measures the per-call completion time of a collective in
// microseconds, OSU-style: every iteration runs the operation and then a
// barrier, so successive calls cannot pipeline and the slowest rank's
// finish counts. Rank 0 reports the mean with the barrier-only baseline
// subtracted.
func CollectiveTime(o Options, np int, sizes []int, iters int,
	run func(comm *mpi.Comm, buf mpi.Buffer)) Series {
	pts := o.sweep(np, sizes, func(comm *mpi.Comm, size int, per *float64) {
		buf, _ := comm.Alloc(max(size, 1))
		sb := mpi.Slice(buf, 0, size)
		run(comm, sb) // warmup
		comm.Barrier()
		start := comm.Wtime()
		for i := 0; i < iters; i++ {
			comm.Barrier()
		}
		barriers := comm.Wtime() - start
		start = comm.Wtime()
		for i := 0; i < iters; i++ {
			run(comm, sb)
			comm.Barrier()
		}
		if comm.Rank() == 0 {
			*per = (comm.Wtime() - start - barriers) / float64(iters) * 1e6
		}
	})
	return Series{Points: pts}
}

// collIters is the measured calls per point of every registry sweep.
const collIters = 5

// fatTree is the contended net the registry sweeps pin next to the flat
// wire: four nodes per leaf over one uplink.
var fatTree = &switchfab.Config{LeafDown: 4, LeafUp: 1}

// collRow is a pinned registry sweep of one collective at np=16, one rank
// per node, 256 B–64 KiB: the curves the tuning table's flat and fat-tree
// cutoffs rest on.
func collRow(coll string, sw *switchfab.Config) func() Figure {
	return func() Figure {
		f, err := CollAlgSweep(coll, 16, 1, sw, sizesPow4(256, 64<<10))
		if err != nil {
			panic(err)
		}
		return f
	}
}

// CollAlgSweep measures the named collective under each of its registered
// algorithms across the given sizes on an np-rank, cpn-cores-per-node
// zero-copy cluster whose wires run through sw (nil = the flat wire; a fat
// tree measures the same registry under uplink contention, the data the
// topology-keyed tuning defaults rest on). The figure id names the
// collective, net and layout, so BENCH_figures.json holds each one apart.
// A layout the cluster refuses is returned as its error.
func CollAlgSweep(coll string, np, cpn int, sw *switchfab.Config, sizes []int) (Figure, error) {
	// Only what the layout can run: a forced-but-inapplicable name would
	// silently fall back to the flat algorithm and mislabel its series.
	algs, err := applicableAlgs(coll, np, cpn, sw)
	if err != nil {
		return Figure{}, err
	}
	root := min(collAlgRoot, np-1)
	net := switchfab.NetLabel(sw)
	f := Figure{
		ID: fmt.Sprintf("coll-%s/%s/np=%d/cpn=%d", coll, net, np, cpn),
		Title: fmt.Sprintf("Collective algorithms: %s (%d ranks, %d per node, root %d, net %s)",
			coll, np, cpn, root, net),
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, a := range algs {
		var tun mpi.Tuning
		tun.Force(coll, a)
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: cpn, Tuning: &tun, Switch: sw}}
		s := CollectiveTime(o, np, sizes, collIters, collRunner(coll, np, root))
		s.Name = coll + "/" + a
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// applicableAlgs filters a collective's registry down to the algorithms
// the given layout can actually run (one probe launch). A layout the
// cluster refuses is returned as its error, which names the field.
func applicableAlgs(coll string, np, cpn int, sw *switchfab.Config) ([]string, error) {
	algs := mpi.AlgorithmNames(coll)
	applicable := map[string]bool{}
	probe, err := cluster.New(cluster.Config{NP: np, CoresPerNode: cpn,
		Transport: cluster.TransportZeroCopy, Switch: sw})
	if err != nil {
		return nil, err
	}
	probe.Launch(func(comm *mpi.Comm) {
		if comm.Rank() != 0 {
			return
		}
		for _, a := range algs {
			applicable[a] = comm.AlgorithmApplicable(coll, a)
		}
	})
	probe.Close()
	return slices.DeleteFunc(algs, func(a string) bool { return !applicable[a] }), nil
}

// ablationCollAlg sweeps every registered bcast, reduce and allgather
// algorithm per message size, 4 B–64 KiB, on the 4-node × 4-core layout —
// the data the default tuning table is keyed on, hierarchical against flat
// included: reduce/hier overtakes reduce/binomial at mpi's 4 KiB
// hierReduceCutoff.
func ablationCollAlg() Figure {
	sizes := sizesPow4(4, 64<<10)
	f := Figure{
		ID:     "ablation-coll-alg",
		Title:  "Collective algorithm registry sweep (4 nodes × 4 cores, root 5)",
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, coll := range []string{"bcast", "reduce", "allgather"} {
		sub, err := CollAlgSweep(coll, collAlgNP, collAlgCPN, nil, sizes)
		if err != nil {
			panic(err)
		}
		f.Series = append(f.Series, sub.Series...)
	}
	return f
}
