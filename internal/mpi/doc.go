// Package mpi implements the MPI-1 subset the paper evaluates — blocking
// and non-blocking point-to-point with tag/source matching and wildcards,
// communicator construction (Dup, Split), and the collectives the NAS
// Parallel Benchmarks use — directly on the rank's progress engine
// (internal/transport), which is the ADI3 device of this stack.
// The paper's focus is exactly this: "our study focuses on optimizing the
// performance of MPI-1 functions in MPICH2" (§1 of
// conf_ipps_LiuJWPABGT04).
//
// Collectives dispatch through a per-communicator algorithm registry —
// one table, one row per collective — and tuning table (algorithms.go,
// DESIGN.md §8); communicators and context-id allocation live in comm.go.
// An MPI-2 one-sided extension (Win/Put/Get/FetchAdd/CompareSwap/Fence
// over RDMA and InfiniBand atomics), flagged as future work in §9 of the
// paper, lives in onesided.go; the RDMA-direct collectives
// (rdmadirect.go) expose their slot region as such a window.
//
// Layer boundaries: mpi sees messages, communicators and ranks; bytes,
// rails and transports are the engine's and endpoints' business. The one
// deliberate exception is the one-sided window, which reaches through
// rdmachan.RawAccess for raw verbs resources (rail 0's, on a multi-rail
// connection) — and is therefore restricted to channel-design transports
// (the construction error names the config knob to flip:
// Config.Chan.UseSRQ).
//
// Invariants:
//
//   - Every communicator owns a context-id pair (p2p + collective);
//     world keeps 0/1, derived communicators allocate upward by
//     max-agreement on the parent. Sibling communicators can never
//     cross-match, wildcards included.
//   - Collective algorithm selection is per-communicator and
//     deterministic: the default tuning table reproduces the historical
//     hardwired dispatch bit-for-bit (verified by the PR 3 probe) except
//     where a measured crossover moved it on purpose — allreduce on fat
//     trees, allgather below its block cutoff (Tuning.Allgather = "ring"
//     is the old schedule), multi-node alltoall below its block cutoff
//     (Tuning.Alltoall = "pairwise"); forced overrides come only through
//     Tuning — no per-algorithm method is exported.
//   - Collectives reuse per-communicator scratch buffers: zero
//     steady-state allocations (TestCollectiveScratchReuse).
package mpi
