// Package transport is the unified transport abstraction of the MPI stack
// (DESIGN.md §2, "Layering"). It defines the one Endpoint interface every
// transport implements — the four RDMA Channel designs framed by the CH3
// packet engine (internal/ch3), the direct CH3 InfiniBand design with its
// RDMA-write rendezvous (also internal/ch3), the SRQ-backed eager mode,
// and the intra-node shared-memory channel (internal/shmchan) — plus the
// per-process progress Engine that owns the posted/unexpected queues,
// request lifecycle and round-robin polling on top of them.
//
// The split mirrors the MPICH2 layering argument of the paper (§3 of
// conf_ipps_LiuJWPABGT04): the engine sees messages and matching;
// the endpoint below sees only how bytes move.
//
// Layer boundaries: the Engine is the rank's ADI3 device, as MPICH2's CH3
// device is its ADI3 implementation. internal/mpi drives it directly from
// above; the endpoints (internal/ch3, internal/shmchan) sit below. It
// holds THE single matching loop of the stack; no endpoint duplicates it.
// Lazy connection establishment lives here too, as the engine's own state:
// a peer with no endpoint has at most one open dial holding the sends
// posted to it, and the cluster supplies the dial logic. Every endpoint the
// engine holds is a real one.
//
// Invariants:
//
//   - Exactly one matching engine per rank, and matching is by (context,
//     source, tag) with the context compared first — traffic on sibling
//     communicators can never cross-match, wildcards included.
//   - Rendezvous answers go back on the endpoint the RTS arrived on: with
//     a wildcard receive, that endpoint is the only record of the peer.
//   - The single-driver promotion rule (DESIGN.md §9): the endpoint a dial
//     is fulfilled with is installed, and the dial's queued sends flushed,
//     only by the OWNING rank's progress pass — never by the connection
//     manager — so sends racing the handshake drain in posted order on one
//     process. Until then Endpoint returns nil and Connected true.
//   - Receives never force a connection; only sends dial.
//   - The engine polls endpoints round-robin from a rotating cursor, and
//     snapshots the rank's watch (model.Watch) before each pass so a
//     delivery racing the pass (on any rail) cannot be lost before a
//     blocking wait. Everything the rank polls notifies that watch and no
//     other; the -tags invariants build panics on a wake that went to the
//     wrong rank of the node.
//   - One idle answer per slot (DESIGN.md §18): every established endpoint's
//     slot holds an idle answer or none. A free answer (a zero step: the
//     shared-memory channel or a non-resilient SRQ connection holding no
//     work) says its Poll would return false without sleeping, scheduling
//     or changing state, and the pass steps over it, so the pass is
//     indistinguishable from one that polled everybody. A charged answer
//     (an idle chunk ring) is slept as one step of a chain with the charged
//     answers around it, free ones included (DESIGN.md §16). A slot holding
//     none is asked, and polled when it answers busy. An answer holds until
//     the endpoint touches its slot, in every dispatch that changes what the
//     answer reads; an endpoint that misses a touch is a bug in the
//     endpoint.
//   - The promise is machine-checked by the -tags invariants build, which
//     re-asks every held answer it uses, free ones included.
package transport
