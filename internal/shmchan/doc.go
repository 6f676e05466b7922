// Package shmchan is the intra-node transport: a transport.Endpoint over
// the node's shared memory, for rank pairs that the cluster places on the
// same SMP node. The paper evaluates one process per node and flags
// multi-process SMP nodes as the natural next scenario; this package opens
// that axis (DESIGN.md §6).
//
// The design is the classic shared-memory MPI channel — the very scheme
// the paper's Figure 3 shows the RDMA designs emulating over the network,
// here implemented natively:
//
//   - Eager path: small messages travel through a lock-free
//     single-producer/single-consumer ring of fixed-size flagged cells.
//   - Segment path: messages above EagerMax copy through a shared segment
//     in chunks — a two-copy pipeline that preserves FIFO order with eager
//     traffic via ring descriptors.
//   - Rendezvous path (RndvThreshold > 0): an RTS descriptor announces the
//     message and the payload then moves with a single kernel-assisted
//     copy straight between user buffers (CMA/LiMIC-style), pinned through
//     the same pin-down cache design as the InfiniBand rendezvous (§5).
//
// Layer boundaries: shmchan implements transport.Endpoint and delivers
// arrivals to the engine's matching upcalls; it never matches messages
// itself. Its copies are charged through the node's Bus, so co-located
// ranks contend for memory bandwidth with each other and with every HCA
// rail of the node; its stores notify the peer rank's watch
// (model.Watch), the one that rank's progress loop sleeps on, because to a
// polling loop a flag flipped by a neighbouring core is indistinguishable
// from one flipped by a DMA engine — and, as with a DMA write, only the rank
// polling that flag wakes.
//
// Invariants:
//
//   - Each ring direction has exactly one writer and one reader; head and
//     tail never contend, which is what makes flag-based cells safe
//     without locks.
//   - Message order on a pair is FIFO across all three paths: descriptors
//     serialize through the ring even when payloads bypass it.
//   - A connection holding no work gives the transport a free idle answer
//     (IdlePoll, DESIGN.md §18): every change the peer can see goes through
//     notify, which touches the peer's connection, and a Poll that leaves
//     work behind touches its own. A connection that holds work holds no
//     answer whenever its rank's progress engine looks.
package shmchan
