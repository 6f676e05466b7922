// Package rdmachan implements the paper's primary contribution: the MPICH2
// RDMA Channel interface (§3.2 of conf_ipps_LiuJWPABGT04) over InfiniBand,
// in four successive designs (§4–§5):
//
//   - Basic: a direct emulation of the shared-memory ring of Figure 3 using
//     RDMA writes for the data and for the replicated head/tail pointers —
//     three RDMA writes per matching send/receive pair (§4.2).
//   - Piggyback: pointer updates ride with the data; the ring is divided
//     into fixed-size flagged chunks, and tail (credit) updates are delayed
//     and batched (§4.3).
//   - Pipeline: piggybacking plus per-chunk overlap of memory copies with
//     RDMA writes for large messages (§4.4).
//   - ZeroCopy: piggybacked/pipelined eager path for small messages; large
//     messages are pulled by the receiver with RDMA read directly between
//     user buffers, with a pin-down registration cache (§5).
//
// The interface is the paper's byte-FIFO pipe: Put writes toward the peer,
// Get reads, both non-blocking, both returning the number of bytes
// completed; the caller retries until its buffer list is drained.
//
// Beyond the paper, a connection may span several rails — one queue pair
// per (node-pair, rail), sharing the eager and rendezvous state machines
// (NewConnectionRails, DESIGN.md §10): eager chunks pick a rail through a
// pluggable RailPolicy, and large zero-copy transfers stripe across every
// rail in ChunkSize-aligned blocks counted down by signaled completions.
// Mover is the one stripe engine under both zero-copy designs: the
// channel's RDMA-read pull and the CH3 design's RDMA-write push post,
// count and re-issue their stripes through it.
// The package also holds the SRQ-backed eager machinery (SRQPool,
// DESIGN.md §9), which replaces per-connection rings with a per-process
// slot pool behind a shared receive queue sized by the SRQ* constants.
// Fault-survival mode is an argument of NewConnectionRails and NewSRQPool.
//
// Layer boundaries: rdmachan speaks verbs (internal/ib) below and bytes
// above — it knows nothing about MPI envelopes or matching. The CH3 packet
// layer (internal/ch3) frames messages over the pipe; the direct CH3
// design reaches through RawAccess for the verbs resources the pipe
// abstraction deliberately hides. Layers that post signaled work of their
// own on those resources get its completions back through one router per
// completion-queue owner (OnCQE on RawAccess and on SRQPool): a handler
// registered once, a WRID class in return. The fixed / weighted /
// round-robin rail choice is one function, Config.PickRail.
//
// Invariants:
//
//   - The pipe is strictly FIFO per direction; an outstanding zero-copy
//     transfer blocks it until acknowledged (§5's "put returns 0 until all
//     of the data has been transferred").
//   - Chunks are consumed in sequence-number order whatever rail delivered
//     them; each chunk's own leading/trailing flags make cross-rail
//     arrival order immaterial.
//   - Control counters (credits, zero-copy acks) are cumulative and live
//     on rail 0; readers merge them monotonically, so a stale overwrite
//     can never move a window backwards.
//   - The basic design is single-rail: its head/tail protocol needs one
//     strictly ordered queue pair.
//   - A buffer touched by RDMA on rail k must be registered on rail k's
//     adapter; per-rail pin-down caches keep re-registration off the
//     steady-state path.
package rdmachan
