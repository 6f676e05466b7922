package mpi

import (
	"fmt"
	"slices"
	"sort"
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
// cluster.Config and `mpich2ib-bench -coll-alg`) is the only way to force
// an algorithm by name; a forced algorithm that is inapplicable on the communicator's
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
func rdmaDirectOK(c *Comm) bool { return c.w.rdmaOK && !c.t.multi }

// pof2OK admits the in-place doubling exchange, which pairs rank with
// rank XOR 2^k and so needs every such partner to exist.
func pof2OK(c *Comm) bool { return pof2Below(c.Size()) == c.Size() }

// entry is one registered algorithm: its implementation and whether it
// can run on a communicator's topology at all.
type entry[F any] struct {
	run F
	ok  func(*Comm) bool
}

// algMap is one collective's registered algorithms and its flat default,
// the topology-oblivious algorithm a pick falls back to.
type algMap[F any] struct {
	flat string
	m    map[string]entry[F]
}

// pick is every pick*'s tail: the preferred algorithm where it is
// registered and applies on c's topology, the flat default otherwise.
func (a algMap[F]) pick(c *Comm, name string) F {
	if e, ok := a.m[name]; ok && e.ok(c) {
		return e.run
	}
	return a.m[a.flat].run
}

func (a algMap[F]) names() []string {
	names := make([]string, 0, len(a.m))
	for n := range a.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (a algMap[F]) applicable(c *Comm, alg string) (ok, found bool) {
	e, found := a.m[alg]
	return found && e.ok(c), found
}

// The algorithm maps. Hierarchical algorithms split the collective into a
// leader level (one rank per node, over the network) and a node level
// (over shared memory).
var (
	bcastAlgs = algMap[bcastFn]{flat: "binomial", m: map[string]entry[bcastFn]{
		"binomial":          {run: (*Comm).flatBcast, ok: alwaysOK},
		"hier-leader":       {run: (*Comm).hierBcast, ok: smpOK},
		"scatter-allgather": {run: (*Comm).saBcast, ok: alwaysOK},
	}}
	reduceAlgs = algMap[reduceFn]{flat: "binomial", m: map[string]entry[reduceFn]{
		"binomial": {run: (*Comm).flatReduce, ok: alwaysOK},
		"hier":     {run: (*Comm).hierReduce, ok: smpOK},
	}}
	allgatherAlgs = algMap[allgatherFn]{flat: "ring", m: map[string]entry[allgatherFn]{
		"ring":               {run: (*Comm).flatAllgather, ok: alwaysOK},
		"hier":               {run: (*Comm).hierAllgather, ok: hierAllgatherOK},
		"recursive-doubling": {run: (*Comm).rdAllgather, ok: pof2OK},
		"bruck":              {run: (*Comm).bruckAllgather, ok: alwaysOK},
	}}
	barrierAlgs = algMap[barrierFn]{flat: "dissemination", m: map[string]entry[barrierFn]{
		"dissemination": {run: (*Comm).flatBarrier, ok: alwaysOK},
		"hier":          {run: (*Comm).hierBarrier, ok: smpOK},
	}}
	allreduceAlgs = algMap[allreduceFn]{flat: "reduce-bcast", m: map[string]entry[allreduceFn]{
		"reduce-bcast":       {run: (*Comm).flatAllreduce, ok: alwaysOK},
		"recursive-doubling": {run: (*Comm).rdAllreduce, ok: alwaysOK},
		"rabenseifner":       {run: (*Comm).rabAllreduce, ok: alwaysOK},
		"rdma-direct":        {run: (*Comm).directAllreduce, ok: rdmaDirectOK},
	}}
	alltoallAlgs = algMap[alltoallFn]{flat: "pairwise", m: map[string]entry[alltoallFn]{
		"pairwise":    {run: (*Comm).flatAlltoall, ok: alwaysOK},
		"scattered":   {run: (*Comm).scatteredAlltoall, ok: alwaysOK},
		"rdma-direct": {run: (*Comm).directAlltoall, ok: rdmaDirectOK},
	}}
)

// collective is one row of the registry: a collective's name, its
// algorithms, and the Tuning field that forces one of them.
type collective struct {
	name string
	algs interface {
		names() []string
		applicable(c *Comm, alg string) (ok, found bool)
	}
	field func(*Tuning) *string
}

// registry is the table every name lookup reads, in Collectives order.
var registry = []collective{
	{"allgather", allgatherAlgs, func(t *Tuning) *string { return &t.Allgather }},
	{"allreduce", allreduceAlgs, func(t *Tuning) *string { return &t.Allreduce }},
	{"alltoall", alltoallAlgs, func(t *Tuning) *string { return &t.Alltoall }},
	{"barrier", barrierAlgs, func(t *Tuning) *string { return &t.Barrier }},
	{"bcast", bcastAlgs, func(t *Tuning) *string { return &t.Bcast }},
	{"reduce", reduceAlgs, func(t *Tuning) *string { return &t.Reduce }},
}

// find returns coll's registry row.
func find(coll string) (collective, bool) {
	for _, r := range registry {
		if r.name == coll {
			return r, true
		}
	}
	return collective{}, false
}

// row returns coll's registry row, panicking on an unknown collective.
func row(coll string) collective {
	r, ok := find(coll)
	if !ok {
		panic(unknownCollective(coll))
	}
	return r
}

// Collectives lists the collectives with registered algorithms.
func Collectives() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// AlgorithmNames lists the registered algorithms of one collective,
// sorted. It panics on an unknown collective.
func AlgorithmNames(coll string) []string { return row(coll).algs.names() }

func unknownCollective(coll string) string {
	return fmt.Sprintf("mpi: unknown collective %q (have %s)", coll, strings.Join(Collectives(), ", "))
}

func unknownAlgorithm(coll, alg string) string {
	return fmt.Sprintf("unknown %s algorithm %q (have %s)", coll, alg, strings.Join(AlgorithmNames(coll), ", "))
}

// Tuning is a communicator's collective algorithm selection. Empty fields
// use the default topology/size table, so the zero Tuning is the default;
// a named algorithm forces that choice for every call (falling back to the
// flat default where the algorithm is inapplicable on the communicator's
// topology). Derived communicators inherit their parent's tuning.
type Tuning struct {
	Bcast     string // "" | "binomial" | "hier-leader" | "scatter-allgather"
	Reduce    string // "" | "binomial" | "hier"
	Allgather string // "" | "ring" | "hier" | "recursive-doubling" | "bruck"
	Barrier   string // "" | "dissemination" | "hier"
	Allreduce string // "" | "reduce-bcast" | "recursive-doubling" | "rabenseifner" | "rdma-direct"
	Alltoall  string // "" | "pairwise" | "scattered" | "rdma-direct"

	// net names the network model the table is keyed for: "flat" for the
	// per-link wire, or a switchfab label ("fattree-d4-u1"). NewWorld
	// stamps it from the topology the cluster built; the default table
	// consults it because the crossovers measured on the contended fat
	// tree differ from the flat-wire ones (DESIGN.md §14).
	net string
}

// fattree reports whether the tuning was keyed for a blocking fat-tree
// network (switchfab label).
func (t Tuning) fattree() bool { return strings.HasPrefix(t.net, "fattree") }

// Forced returns the algorithm forced for one collective ("" = the
// table). It panics on an unknown collective.
func (t Tuning) Forced(coll string) string { return *row(coll).field(&t) }

// Force pins one collective to a named algorithm. It panics on an
// unknown collective.
func (t *Tuning) Force(coll, alg string) { *row(coll).field(t) = alg }

// Validate reports the first forced algorithm the registry does not have,
// naming its field ("Bcast: unknown bcast algorithm …") so a caller can
// prefix its own path.
func (t Tuning) Validate() error {
	for _, r := range registry {
		if name := *r.field(&t); name != "" && !slices.Contains(r.algs.names(), name) {
			return fmt.Errorf("%s: %s", strings.ToUpper(r.name[:1])+r.name[1:], unknownAlgorithm(r.name, name))
		}
	}
	return nil
}

// AlgorithmApplicable reports whether a named algorithm can run on this
// communicator's topology (the registry's applicability predicate). It
// panics on an unknown collective or algorithm.
func (c *Comm) AlgorithmApplicable(coll, alg string) bool {
	ok, found := row(coll).algs.applicable(c, alg)
	if !found {
		panic("mpi: " + unknownAlgorithm(coll, alg))
	}
	return ok
}

// --- per-call selection ---
// Each pick resolves a preferred name — the forced one, or the table's
// choice — and hands it to the shared tail (algMap.pick), which gates it on
// the registry entry's own applicability predicate and falls back to the
// flat default; the predicates live only in the registry.

func (c *Comm) pickBcast() bcastFn {
	name := c.w.tuning.Bcast
	if name == "" {
		name = "hier-leader"
	}
	return bcastAlgs.pick(c, name)
}

func (c *Comm) pickReduce(n int) reduceFn {
	name := c.w.tuning.Reduce
	if name == "" && n >= hierReduceCutoff {
		name = "hier"
	}
	return reduceAlgs.pick(c, name)
}

// pickAllgather takes the per-rank block size. The table keeps hier where
// it applies; elsewhere blocks below the network's cutoff go in log2
// steps — doubling in place where the size allows it, Bruck through its
// temporary where not — and longer ones stay on the ring.
func (c *Comm) pickAllgather(n int) allgatherFn {
	name := c.w.tuning.Allgather
	if name == "" {
		name = "hier"
		if !allgatherAlgs.m[name].ok(c) && n < c.w.tuning.allgatherRingCutoff() {
			name = "recursive-doubling"
			if !allgatherAlgs.m[name].ok(c) {
				name = "bruck"
			}
		}
	}
	return allgatherAlgs.pick(c, name)
}

func (c *Comm) pickBarrier() barrierFn {
	name := c.w.tuning.Barrier
	if name == "" {
		name = "hier"
	}
	return barrierAlgs.pick(c, name)
}

func (c *Comm) pickAllreduce(n int) allreduceFn {
	name := c.w.tuning.Allreduce
	if name == "" && c.w.tuning.fattree() {
		// The fat-tree table: the reduce-then-bcast composition funnels the
		// whole vector through rank 0's uplink twice, which the contended
		// model punishes; the doubling/halving families spread the load
		// across leaf uplinks (BENCH_figures.json, DESIGN.md §14).
		if n >= allreduceRabCutoff {
			name = "rabenseifner"
		} else {
			name = "recursive-doubling"
		}
	}
	return allreduceAlgs.pick(c, name)
}

// pickAlltoall takes the per-peer block size. The table overlaps the
// exchanges of blocks below the cutoff on communicators that span nodes;
// single-node communicators and long blocks keep the pairwise rounds.
func (c *Comm) pickAlltoall(n int) alltoallFn {
	name := c.w.tuning.Alltoall
	if name == "" && n < alltoallScatterCutoff && len(c.t.leaders) > 1 {
		name = "scattered"
	}
	return alltoallAlgs.pick(c, name)
}
