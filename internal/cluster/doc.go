// Package cluster assembles complete simulated systems: N nodes with HCAs
// on a switched fabric, a chosen transport design wired between rank
// pairs, one transport engine per rank, and MPI process launch — the simulation counterpart
// of the paper's 8-node testbed (§4.1 of conf_ipps_LiuJWPABGT04).
//
// Beyond the testbed it opens three scenario axes:
//
//   - CoresPerNode (DESIGN.md §6): multiple ranks per node; co-located
//     pairs wire over shared memory (internal/shmchan), remote pairs over
//     the selected InfiniBand transport, and ranks on one node share its
//     adapters and memory bus.
//   - ConnectMode (DESIGN.md §9): ConnectEager wires the full O(np²) mesh
//     at construction, reproducing the paper's setup; ConnectLazy installs
//     connector stubs and establishes each connection on first use. The
//     SRQ-backed eager mode (Chan.UseSRQ) replaces per-connection rings
//     with per-process pools.
//   - RailsPerNode (DESIGN.md §10): several HCAs per node; every
//     inter-node connection becomes a rail set, eager traffic is policy-
//     steered, large zero-copy transfers stripe, and in SRQ mode whole
//     connections spread across per-rail pools.
//
// Layer boundaries: cluster is the composition root — the only package
// that knows every layer (model, ib, rdmachan, ch3, shmchan, transport,
// mpi) and the only place wiring decisions live. Benchmarks
// (internal/bench, internal/nas) and tests build clusters; nothing below
// imports this package.
//
// Invariants:
//
//   - Every pair speaks transport.Endpoint to its ranks' engines, so any
//     transport sits behind any slot.
//   - A rank pair's connection is established exactly once, whichever side
//     dials first (the simultaneous-connect race resolves through
//     pairStarted); flushing queued sends is the owner engine's job, never
//     the connection manager's (the single-driver rule, DESIGN.md §9).
//   - Rails[n][0] == HCAs[n]: rail 0 is the primary adapter, and
//     single-rail configurations build exactly the pre-rail topology.
//   - New calls Config.Validate before building anything; every error
//     names the field it rejects, nothing is silently replaced, and a
//     non-nil Fault plan is what makes the stack resilient (DESIGN.md §19).
//   - Construction failures return errors (New) — MustNew is the panicking
//     convenience for harnesses.
package cluster
