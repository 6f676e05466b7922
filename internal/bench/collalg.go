package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/switchfab"
)

// Collective algorithm sweeps: every registered algorithm of a collective
// measured on the same layout, one series per algorithm — the data behind
// the per-comm tuning table's choices (the registry lives in
// internal/mpi/algorithms.go; `mpich2ib-bench -coll ... -coll-alg ...`
// drives these from the command line).

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

// CollAlgSweep measures the named collective under each of its registered
// algorithms across the given sizes on an np-rank, cpn-cores-per-node
// zero-copy cluster whose wires run through sw (nil = the flat wire; a fat
// tree measures the same registry under uplink contention, the data the
// topology-keyed tuning defaults rest on). The algorithms the base tuning
// forces for other collectives carry through to each series; a base
// algorithm forced for coll itself restricts the sweep to that one series.
// The figure id names the collective, net and layout, so BENCH_coll.json
// holds each one apart.
func CollAlgSweep(coll string, np, cpn int, sw *switchfab.Config, sizes []int, iters int, base mpi.Tuning) (Figure, error) {
	if iters < 1 {
		return Figure{}, fmt.Errorf("bench: %d measured calls per point, want at least 1", iters)
	}
	// Only what the layout can run: a forced-but-inapplicable name would
	// silently fall back to the flat algorithm and mislabel its series.
	algs, err := applicableAlgs(coll, np, cpn, sw)
	if err != nil {
		return Figure{}, err
	}
	if alg := base.Forced(coll); alg != "" {
		if all := mpi.AlgorithmNames(coll); !slices.Contains(all, alg) {
			return Figure{}, fmt.Errorf("bench: unknown %s algorithm %q (have %v)", coll, alg, all)
		}
		if !slices.Contains(algs, alg) {
			return Figure{}, fmt.Errorf("bench: %s/%s is inapplicable on %d ranks × %d per node", coll, alg, np, cpn)
		}
		algs = []string{alg}
	}
	root := min(collAlgRoot, np-1)
	net := netLabel(sw)
	f := Figure{
		ID: fmt.Sprintf("coll-%s/%s/np=%d/cpn=%d", coll, net, np, cpn),
		Title: fmt.Sprintf("Collective algorithms: %s (%d ranks, %d per node, root %d, net %s)",
			coll, np, cpn, root, net),
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, a := range algs {
		tun := base
		tun.Force(coll, a)
		o := Options{Config: cluster.Config{Transport: cluster.TransportZeroCopy, CoresPerNode: cpn, Tuning: &tun, Switch: sw}}
		s := CollectiveTime(o, np, sizes, iters, collRunner(coll, np, root))
		s.Name = coll + "/" + a
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// applicableAlgs filters a collective's registry down to the algorithms
// the given layout can actually run (one probe launch). A layout the
// cluster refuses is returned as its error, which names the field.
func applicableAlgs(coll string, np, cpn int, sw *switchfab.Config) ([]string, error) {
	if !slices.Contains(mpi.Collectives(), coll) {
		return nil, fmt.Errorf("bench: unknown collective %q (have %s)",
			coll, strings.Join(mpi.Collectives(), ", "))
	}
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

// ParseNets maps a -net flag value, a comma list, to switch
// configurations: "flat" is the direct wire (nil), "fattree-dD-uU" a
// two-level fat tree with D nodes per leaf and U uplinks per leaf.
func ParseNets(list string) ([]*switchfab.Config, error) {
	var nets []*switchfab.Config
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "flat" {
			nets = append(nets, nil)
			continue
		}
		rest, ok1 := strings.CutPrefix(tok, "fattree-d")
		ds, us, ok2 := strings.Cut(rest, "-u")
		d, err1 := strconv.Atoi(ds)
		u, err2 := strconv.Atoi(us)
		if !ok1 || !ok2 || err1 != nil || err2 != nil || d < 1 || u < 1 {
			return nil, fmt.Errorf("bench: bad net %q (want flat or fattree-dD-uU, e.g. fattree-d4-u1)", tok)
		}
		nets = append(nets, &switchfab.Config{LeafDown: d, LeafUp: u})
	}
	if len(nets) == 0 {
		return nil, fmt.Errorf("bench: empty net list")
	}
	return nets, nil
}

// netLabel names a switch configuration as ParseNets reads it.
func netLabel(sw *switchfab.Config) string {
	if sw == nil {
		return "flat"
	}
	return sw.Label()
}

// AblationCollAlg sweeps every registered bcast, reduce and allgather
// algorithm per message size, 4 B–64 KiB, on the 4-node × 4-core layout —
// the data the default tuning table is keyed on, hierarchical against flat
// included: reduce/hier overtakes reduce/binomial at mpi's 4 KiB
// hierReduceCutoff (the barrier algorithms have no size axis; sweep them
// with `mpich2ib-bench -coll barrier`).
func AblationCollAlg() Figure {
	sizes := sizesPow4(4, 64<<10)
	f := Figure{
		ID:     "ablation-coll-alg",
		Title:  "Collective algorithm registry sweep (4 nodes × 4 cores, root 5)",
		XLabel: "message size (bytes)", YLabel: "time per call (µs)",
	}
	for _, coll := range []string{"bcast", "reduce", "allgather"} {
		sub, err := CollAlgSweep(coll, collAlgNP, collAlgCPN, nil, sizes, 5, mpi.Tuning{})
		if err != nil {
			panic(err)
		}
		f.Series = append(f.Series, sub.Series...)
	}
	return f
}
