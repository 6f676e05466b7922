// Package ch3 models MPICH2's CH3 layer (§3.1 of conf_ipps_LiuJWPABGT04):
// the packet protocol between the transport abstraction
// (internal/transport) and the byte or packet carriers below. It is one
// engine over two carriers.
//
// The engine (engine.go) is the paper's §6 protocol, written once: every
// MPI message is a 64-byte header plus payload; a small one goes eagerly,
// a large one negotiates RTS → CTS, moves by RDMA *write* into the
// receiver's registered user buffer, and finishes with a FIN (Figure 12).
// It owns the packet record and its pool, the control-before-data send
// queue, header validation and dispatch, and the payload move's policy —
// the candidate rails, their registrations, where the FIN goes — while
// rdmachan.Mover posts, counts and re-issues the write stripes (DESIGN.md
// §10's tables say who registers, signals and completes what, case by
// case).
//
// A carrier moves the engine's packets:
//
//   - Conn, the chunk-ring byte pipe over any rdmachan.Endpoint. In
//     over-channel mode (NewOverChannel) everything is framed eagerly and
//     large messages are the pipe's business — the paper's main line of
//     work, rendezvous hidden below the put/get abstraction (§5). In
//     direct mode (NewIBConn) the engine's rendezvous runs over the rails
//     rdmachan.RawAccess exposes.
//   - SRQConn, the message send into a per-process shared receive pool
//     (DESIGN.md §9), the connection-scalable eager mode — and, because
//     such a connection is nothing but a queue pair, the one that can
//     recover from a dead rail by re-dialing (DESIGN.md §11).
//
// Layer boundaries: ch3 moves packets; it owns no matching logic. The
// transport engine above decides eager vs rendezvous and resolves
// envelopes to buffers; rdmachan/ib below move bytes.
//
// Invariants:
//
//   - Control packets (CTS, FIN) win over data at packet boundaries, so
//     rendezvous answers never starve behind bulk traffic — but a packet
//     is never interleaved mid-message.
//   - A rendezvous send completes when its payload is acked or gathered,
//     never earlier: at the FIN's completion where the carrier has one and
//     the FIN follows the write on one queue pair, at or after the last
//     counted write completion everywhere else.
//   - No header field indexes anything before header.check has bounded it.
//   - The fixed 64-byte header carries up to four per-rail rkeys in a CTS,
//     and a re-dialing connection's stream position (delivery order).
//   - Each carrier gives the transport one idle answer per slot (IdlePoll,
//     DESIGN.md §18) and touches the slot whenever the answer goes stale:
//     Conn's is charged over a chunk ring (the ring's write and completion
//     hooks and admit touch it) and busy over the basic design; a
//     non-resilient SRQConn's is free while no packet is queued (flush
//     touches it when it leaves packets behind), a resilient one's busy.
package ch3
