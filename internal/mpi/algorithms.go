package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Pluggable collective algorithms. Every collective is a named algorithm
// in a registry; each call selects one through the communicator's tuning
// table, keyed by the communicator's topology and the message size. The
// default table reproduces the dispatch the SMP ablations measured —
// hierarchical algorithms on multi-rank-per-node layouts, flat otherwise,
// with Reduce going hierarchical only at and above the measured 4 KB
// crossover — so default-tuned runs are bit-identical to the hardwired
// dispatch this registry replaced. A Tuning override (threaded through
// cluster.Config and `mpich2ib-bench -coll-alg`) forces an algorithm by
// name; a forced algorithm that is inapplicable on the communicator's
// topology (e.g. hier on one rank per node) falls back to the flat
// default so forced runs stay correct on every layout.

// Algorithm function shapes, one per collective.
type (
	bcastFn     func(c *Comm, buf Buffer, root int)
	reduceFn    func(c *Comm, send, recv Buffer, dt Datatype, op Op, root int)
	allgatherFn func(c *Comm, send, recv Buffer)
	barrierFn   func(c *Comm)
	allreduceFn func(c *Comm, send, recv Buffer, dt Datatype, op Op)
	alltoallFn  func(c *Comm, send, recv Buffer)
)

// applicable predicates: whether an algorithm can run on this
// communicator's topology at all.
func alwaysOK(*Comm) bool { return true }
func smpOK(c *Comm) bool  { return c.t.multi }
func hierAllgatherOK(c *Comm) bool {
	// The hierarchical path places node blocks contiguously, so it needs
	// block-contiguous rank placement within the communicator.
	return c.t.multi && c.t.contiguous
}

// rdmaDirectOK gates the RDMA-direct collectives (rdmadirect.go). Every
// rank of the communicator must evaluate it identically or the exposure
// handshake deadlocks, so it is a pure function of cluster-wide facts —
// the capability flag the cluster hands every rank — and of the
// communicator's topology: every member pair must be inter-node, because
// co-located pairs ride shared memory and expose no raw verbs endpoint.
func rdmaDirectOK(c *Comm) bool { return c.rdmaOK && !c.t.multi }

// pof2OK admits the in-place doubling exchange, which pairs rank with
// rank XOR 2^k and so needs every such partner to exist.
func pof2OK(c *Comm) bool { return pof2Below(c.Size()) == c.Size() }

// entry is one registered algorithm: its implementation and whether it
// can run on a communicator's topology at all.
type entry[F any] struct {
	run F
	ok  func(*Comm) bool
}

// The registries. Flat algorithms are the topology-oblivious defaults;
// hierarchical ones split the collective into a leader level (one rank
// per node, over the network) and a node level (over shared memory).
var (
	bcastAlgs = map[string]entry[bcastFn]{
		"binomial":          {run: (*Comm).FlatBcast, ok: alwaysOK},
		"hier-leader":       {run: (*Comm).hierBcast, ok: smpOK},
		"scatter-allgather": {run: (*Comm).saBcast, ok: alwaysOK},
	}
	reduceAlgs = map[string]entry[reduceFn]{
		"binomial": {run: (*Comm).FlatReduce, ok: alwaysOK},
		"hier":     {run: (*Comm).HierReduce, ok: smpOK},
	}
	allgatherAlgs = map[string]entry[allgatherFn]{
		"ring":               {run: (*Comm).FlatAllgather, ok: alwaysOK},
		"hier":               {run: (*Comm).hierAllgather, ok: hierAllgatherOK},
		"recursive-doubling": {run: (*Comm).rdAllgather, ok: pof2OK},
		"bruck":              {run: (*Comm).bruckAllgather, ok: alwaysOK},
	}
	barrierAlgs = map[string]entry[barrierFn]{
		"dissemination": {run: (*Comm).FlatBarrier, ok: alwaysOK},
		"hier":          {run: (*Comm).hierBarrier, ok: smpOK},
	}
	allreduceAlgs = map[string]entry[allreduceFn]{
		"reduce-bcast":       {run: (*Comm).FlatAllreduce, ok: alwaysOK},
		"recursive-doubling": {run: (*Comm).rdAllreduce, ok: alwaysOK},
		"rabenseifner":       {run: (*Comm).rabAllreduce, ok: alwaysOK},
		"rdma-direct":        {run: (*Comm).directAllreduce, ok: rdmaDirectOK},
	}
	alltoallAlgs = map[string]entry[alltoallFn]{
		"pairwise":    {run: (*Comm).FlatAlltoall, ok: alwaysOK},
		"scattered":   {run: (*Comm).scatteredAlltoall, ok: alwaysOK},
		"rdma-direct": {run: (*Comm).directAlltoall, ok: rdmaDirectOK},
	}
)

// Flat algorithm names, the fallbacks when a forced algorithm is
// inapplicable on a communicator's topology.
const (
	flatBcast     = "binomial"
	flatReduce    = "binomial"
	flatAllgather = "ring"
	flatBarrier   = "dissemination"
	flatAllreduce = "reduce-bcast"
	flatAlltoall  = "pairwise"
)

// Collectives lists the collectives with registered algorithms.
func Collectives() []string {
	return []string{"allgather", "allreduce", "alltoall", "barrier", "bcast", "reduce"}
}

// AlgorithmNames lists the registered algorithms of one collective,
// sorted. It panics on an unknown collective.
func AlgorithmNames(coll string) []string {
	switch coll {
	case "bcast":
		return sortedNames(bcastAlgs)
	case "reduce":
		return sortedNames(reduceAlgs)
	case "allgather":
		return sortedNames(allgatherAlgs)
	case "barrier":
		return sortedNames(barrierAlgs)
	case "allreduce":
		return sortedNames(allreduceAlgs)
	case "alltoall":
		return sortedNames(alltoallAlgs)
	}
	panic(unknownCollective(coll))
}

func sortedNames[F any](algs map[string]entry[F]) []string {
	names := make([]string, 0, len(algs))
	for n := range algs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func unknownCollective(coll string) string {
	return fmt.Sprintf("mpi: unknown collective %q (have %s)", coll, strings.Join(Collectives(), ", "))
}

func unknownAlgorithm(coll, alg string) string {
	return fmt.Sprintf("unknown %s algorithm %q (have %s)", coll, alg, strings.Join(AlgorithmNames(coll), ", "))
}

// Algorithms lists every registered algorithm as "collective/name".
func Algorithms() []string {
	var out []string
	for _, coll := range Collectives() {
		for _, n := range AlgorithmNames(coll) {
			out = append(out, coll+"/"+n)
		}
	}
	return out
}

// Tuning is a communicator's collective algorithm selection. Empty fields
// use the default topology/size table; a named algorithm forces that
// choice for every call (falling back to the flat default where the
// algorithm is inapplicable on the communicator's topology). Derived
// communicators inherit their parent's tuning.
type Tuning struct {
	Bcast     string // "" | "binomial" | "hier-leader" | "scatter-allgather"
	Reduce    string // "" | "binomial" | "hier"
	Allgather string // "" | "ring" | "hier" | "recursive-doubling" | "bruck"
	Barrier   string // "" | "dissemination" | "hier"
	Allreduce string // "" | "reduce-bcast" | "recursive-doubling" | "rabenseifner" | "rdma-direct"
	Alltoall  string // "" | "pairwise" | "scattered" | "rdma-direct"

	// Net names the network model the table was keyed for: "" or "flat"
	// for the flat per-link wire, or a switchfab label ("fattree-d4-u1").
	// cluster.Launch stamps it from the topology it built; the default
	// table consults it because the allreduce crossovers measured on the
	// contended fat-tree differ from the flat-wire ones (DESIGN.md §14).
	Net string

	// ReduceHierCutoff is the message size in bytes at and above which the
	// default table picks reduce/hier on SMP layouts; below it the flat
	// binomial wins because its subtrees combine in parallel while the
	// hierarchy serializes the intra-node stage. 0 means the measured
	// default (hierReduceCutoff, DESIGN.md §6).
	ReduceHierCutoff int

	// AllreduceRabCutoff is the message size in bytes at and above which
	// the default table on a fat-tree network picks allreduce/rabenseifner
	// over recursive-doubling: Rabenseifner moves ~half the bytes per rank
	// through the contended uplinks, which wins once serialization on the
	// uplink ports dominates the extra startup latency of its two phases.
	// 0 means the measured default (allreduceRabCutoff, DESIGN.md §14).
	AllreduceRabCutoff int
}

// DefaultTuning is the table that reproduces the measured dispatch.
func DefaultTuning() Tuning {
	return Tuning{ReduceHierCutoff: hierReduceCutoff, AllreduceRabCutoff: allreduceRabCutoff}
}

// DefaultTuningFor returns the default table keyed for a network label —
// cluster.Launch's entry point, so communicators on a fat-tree topology
// re-measure their size crossovers against the contended switch model
// instead of the flat wire.
func DefaultTuningFor(net string) Tuning {
	t := DefaultTuning()
	t.Net = net
	return t
}

// fattree reports whether the tuning was keyed for a blocking fat-tree
// network (switchfab label).
func (t Tuning) fattree() bool { return strings.HasPrefix(t.Net, "fattree") }

// Forced returns the algorithm forced for one collective ("" = the
// table). It panics on an unknown collective.
func (t Tuning) Forced(coll string) string {
	switch coll {
	case "bcast":
		return t.Bcast
	case "reduce":
		return t.Reduce
	case "allgather":
		return t.Allgather
	case "barrier":
		return t.Barrier
	case "allreduce":
		return t.Allreduce
	case "alltoall":
		return t.Alltoall
	}
	panic(unknownCollective(coll))
}

// Force pins one collective to a named algorithm. It panics on an
// unknown collective.
func (t *Tuning) Force(coll, alg string) {
	switch coll {
	case "bcast":
		t.Bcast = alg
	case "reduce":
		t.Reduce = alg
	case "allgather":
		t.Allgather = alg
	case "barrier":
		t.Barrier = alg
	case "allreduce":
		t.Allreduce = alg
	case "alltoall":
		t.Alltoall = alg
	default:
		panic(unknownCollective(coll))
	}
}

// Validate reports the first forced algorithm the registry does not have,
// naming its field ("Bcast: unknown bcast algorithm …") so a caller can
// prefix its own path.
func (t Tuning) Validate() error {
	for _, coll := range Collectives() {
		if name := t.Forced(coll); name != "" && !slices.Contains(AlgorithmNames(coll), name) {
			return fmt.Errorf("%s: %s", strings.ToUpper(coll[:1])+coll[1:], unknownAlgorithm(coll, name))
		}
	}
	return nil
}

// withDefaults fills zero fields. A tuning that fails Validate is a bug of
// the caller: cluster.New rejects one before any rank runs.
func (t Tuning) withDefaults() Tuning {
	if t.ReduceHierCutoff == 0 {
		t.ReduceHierCutoff = hierReduceCutoff
	}
	if t.AllreduceRabCutoff == 0 {
		t.AllreduceRabCutoff = allreduceRabCutoff
	}
	if err := t.Validate(); err != nil {
		panic("mpi: Tuning." + err.Error())
	}
	return t
}

// ParseTuning builds a Tuning from a comma-separated override list, e.g.
// "bcast=hier-leader,allgather=bruck,reduce-cutoff=8192". Keys are the
// collective names (values: AlgorithmNames — for allgather ring, hier,
// recursive-doubling, bruck; for alltoall pairwise, scattered,
// rdma-direct) plus "reduce-cutoff" and "rab-cutoff" (bytes).
func ParseTuning(s string) (Tuning, error) {
	t := DefaultTuning()
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return t, fmt.Errorf("mpi: tuning %q is not key=value", tok)
		}
		if k == "reduce-cutoff" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return t, fmt.Errorf("mpi: bad reduce-cutoff %q", v)
			}
			t.ReduceHierCutoff = n
			continue
		}
		if k == "rab-cutoff" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return t, fmt.Errorf("mpi: bad rab-cutoff %q", v)
			}
			t.AllreduceRabCutoff = n
			continue
		}
		if !slices.Contains(Collectives(), k) {
			return t, errors.New(unknownCollective(k))
		}
		t.Force(k, v)
	}
	if err := t.Validate(); err != nil {
		return t, fmt.Errorf("mpi: Tuning.%w", err)
	}
	return t, nil
}

// AlgorithmApplicable reports whether a named algorithm can run on this
// communicator's topology (the registry's applicability predicate). It
// panics on an unknown collective or algorithm.
func (c *Comm) AlgorithmApplicable(coll, alg string) bool {
	switch coll {
	case "bcast":
		return applicable(c, bcastAlgs, coll, alg)
	case "reduce":
		return applicable(c, reduceAlgs, coll, alg)
	case "allgather":
		return applicable(c, allgatherAlgs, coll, alg)
	case "barrier":
		return applicable(c, barrierAlgs, coll, alg)
	case "allreduce":
		return applicable(c, allreduceAlgs, coll, alg)
	case "alltoall":
		return applicable(c, alltoallAlgs, coll, alg)
	}
	panic(unknownCollective(coll))
}

func applicable[F any](c *Comm, algs map[string]entry[F], coll, alg string) bool {
	e, found := algs[alg]
	if !found {
		panic("mpi: " + unknownAlgorithm(coll, alg))
	}
	return e.ok(c)
}

// --- per-call selection ---
// Each pick resolves a preferred name — the forced one, or the table's
// choice — and gates it on the registry entry's own applicability
// predicate, falling back to the flat default; the predicates live only
// in the registry.

func (c *Comm) pickBcast() bcastFn {
	name := c.tuning.Bcast
	if name == "" {
		name = "hier-leader"
	}
	if e := bcastAlgs[name]; e.ok(c) {
		return e.run
	}
	return bcastAlgs[flatBcast].run
}

func (c *Comm) pickReduce(n int) reduceFn {
	name := c.tuning.Reduce
	if name == "" && n >= c.tuning.ReduceHierCutoff {
		name = "hier"
	}
	if name != "" {
		if e := reduceAlgs[name]; e.ok(c) {
			return e.run
		}
	}
	return reduceAlgs[flatReduce].run
}

// pickAllgather takes the per-rank block size. The table keeps hier where
// it applies; elsewhere blocks below the network's cutoff go in log2
// steps — doubling in place where the size allows it, Bruck through its
// temporary where not — and longer ones stay on the ring.
func (c *Comm) pickAllgather(n int) allgatherFn {
	name := c.tuning.Allgather
	if name == "" {
		name = "hier"
		if !allgatherAlgs[name].ok(c) && n < c.tuning.allgatherRingCutoff() {
			name = "recursive-doubling"
			if !allgatherAlgs[name].ok(c) {
				name = "bruck"
			}
		}
	}
	if e := allgatherAlgs[name]; e.ok(c) {
		return e.run
	}
	return allgatherAlgs[flatAllgather].run
}

func (c *Comm) pickBarrier() barrierFn {
	name := c.tuning.Barrier
	if name == "" {
		name = "hier"
	}
	if e := barrierAlgs[name]; e.ok(c) {
		return e.run
	}
	return barrierAlgs[flatBarrier].run
}

func (c *Comm) pickAllreduce(n int) allreduceFn {
	name := c.tuning.Allreduce
	if name == "" && c.tuning.fattree() {
		// The fat-tree table: the reduce-then-bcast composition funnels the
		// whole vector through rank 0's uplink twice, which the contended
		// model punishes; the doubling/halving families spread the load
		// across leaf uplinks (BENCH_coll.json, DESIGN.md §14).
		if n >= c.tuning.AllreduceRabCutoff {
			name = "rabenseifner"
		} else {
			name = "recursive-doubling"
		}
	}
	if name != "" {
		if e := allreduceAlgs[name]; e.ok(c) {
			return e.run
		}
	}
	return allreduceAlgs[flatAllreduce].run
}

// pickAlltoall takes the per-peer block size. The table overlaps the
// exchanges of blocks below the cutoff on communicators that span nodes;
// single-node communicators and long blocks keep the pairwise rounds.
func (c *Comm) pickAlltoall(n int) alltoallFn {
	name := c.tuning.Alltoall
	if name == "" && n < alltoallScatterCutoff && len(c.t.leaders) > 1 {
		name = "scattered"
	}
	if name != "" {
		if e := alltoallAlgs[name]; e.ok(c) {
			return e.run
		}
	}
	return alltoallAlgs[flatAlltoall].run
}
