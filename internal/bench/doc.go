// Package bench is the measurement harness behind every table and figure
// of the paper's evaluation (§4–§7 of conf_ipps_LiuJWPABGT04). It runs
// the paper's microbenchmarks — ping-pong latency and window-based
// streaming bandwidth — at the MPI level over any transport, raw
// verbs-level benchmarks against the InfiniBand simulator, and the
// repository's extension sweeps: the transport matrix, collective
// algorithm sweeps (DESIGN.md §8), connection-management footprints
// (DESIGN.md §9), and the multi-rail figures (DESIGN.md §10).
//
// Layer boundaries: bench builds clusters (internal/cluster) and runs MPI
// programs on them; it reads counters only through exported stats
// surfaces. The cmd binaries (mpich2ib-bench, enginebench) are thin flag
// parsers over this package; DESIGN.md §4 is the index mapping each
// figure id to its producer here.
//
// Invariants:
//
//   - Measurements exclude setup: clusters wire before the measured
//     interval, and warmup rounds precede timing so first-touch
//     registration stays off the steady-state numbers.
//   - Figure producers are deterministic: the same binary produces
//     byte-identical tables run over run (the des kernel guarantees it),
//     which is what the PR-over-PR "bit-identical baseline" gates compare.
package bench
