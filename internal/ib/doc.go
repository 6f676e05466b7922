// Package ib simulates the InfiniBand Architecture at the verbs level:
// host channel adapters (HCAs), reliable-connection queue pairs, shared
// receive queues, work queue requests, completion queues, and registered
// memory regions with lkey/rkey protection — the API surface the paper's
// MPICH2 designs are built on (§2 of conf_ipps_LiuJWPABGT04).
//
// The simulator executes real protocol state machines over real bytes; only
// time is simulated, via the internal/des kernel and the internal/model
// cost model. The adapter's engines — a send engine per queue pair, a receive
// engine and a read responder per adapter — are stackless des.Tasks (DESIGN.md
// §17): the fabric owns no goroutine, however many queue pairs are wired.
//
// Layer boundaries: ib sits on internal/des and internal/model and exposes
// verbs only. The channel designs (internal/rdmachan), the CH3 packet
// layer (internal/ch3) and the one-sided extension (internal/mpi) drive
// it; nothing in ib knows about messages, matching or MPI. A node may
// carry several adapters (rails): rail 0 shares the node's primary bus
// with the CPU, further rails get dedicated PCI-segment buses behind the
// shared memory controller (Fabric.NewRailHCA).
//
// Invariants the designs rely on:
//
//   - RC ordering: operations on a queue pair execute in posted order, and
//     RDMA writes become visible at the responder in order. No ordering
//     exists between different queue pairs — cross-rail ordering must come
//     from completions, never from posting order.
//   - One-sidedness: RDMA read/write consume no responder CPU.
//   - Completion semantics: a requester CQE means the operation is acked
//     end-to-end; completions appear in work-request order. This is what
//     lets a multi-rail sender treat "all stripe CQEs arrived" as "all
//     data is visible at the receiver".
//   - Payload ownership: a buffer named by a posted work request belongs
//     to the adapter until that request completes; the engine moves its
//     bytes once, source memory to destination memory, at delivery. Payloads
//     of at most inlineMax bytes are the exception, taken by value when the
//     engine gathers the request (inline data), so a counter slot may be
//     rewritten as soon as it is posted. Build with -tags invariants to have
//     every by-reference payload checked at delivery (DESIGN.md §15).
//   - Protection: remote access requires a valid rkey covering the range
//     with the right access flags, validated against the responder
//     adapter's own key table — so a buffer used on N rails needs N
//     registrations, exactly as with real per-HCA pinning.
//   - Limited outstanding RDMA reads per QP (the InfiniHost-era IRD limit
//     responsible for the read-vs-write mid-size bandwidth gap, Figure 15).
//   - An empty private receive queue on a two-sided send is a protocol bug
//     (panic); an empty shared receive queue NAKs and retries (the SRQ
//     flow control of DESIGN.md §9).
package ib
