// Package nas implements communication-accurate skeletons of the NAS
// Parallel Benchmarks 2.4 (EP, IS, CG, MG, FT, LU, SP, BT), the workloads
// of the paper's application-level evaluation (§7, Figures 16–17 of
// conf_ipps_LiuJWPABGT04).
//
// Substitution note (DESIGN.md §7): the original Fortran kernels compute
// real physics; what the paper's Figures 16/17 compare is how the *same
// application traffic* performs over three MPI transports. The skeletons
// therefore issue the real MPI calls — the same message sizes, counts,
// partners, collectives, and dependence structure (e.g. LU's SSOR
// wavefront emerges from actual blocking receives) — move real bytes, and
// verify them with checksums, while the floating-point phases advance
// simulated time through the calibrated compute model (Comm.Compute).
// Relative transport ordering, the figures' result, is preserved.
//
// Layer boundaries: nas sits purely on internal/mpi and internal/cluster —
// it is an application, and deliberately uses no simulator internals. It
// holds only the kernels: the figures over them (Figures 16–17 and the
// SMP and rail sweeps) are built in internal/bench.
//
// Invariants:
//
//   - Every benchmark run is checksum-verified (Result.Verified); a
//     transport bug surfaces as a verification failure, not a wrong
//     number.
//   - Decomposition constraints are the NPB's own: SP/BT need square rank
//     grids, the rest powers of two.
package nas
