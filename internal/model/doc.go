// Package model captures the hardware cost model of the paper's testbed
// (§4.1 of conf_ipps_LiuJWPABGT04): 8 SuperMicro SUPER P4DL6 nodes (dual
// 2.4 GHz Xeon, 512 KB L2, 400 MHz FSB), Mellanox InfiniHost MT23108 4X
// HCAs on PCI-X 64/133, and an InfiniScale 8-port switch.
//
// The model supplies four things to the InfiniBand simulator and the MPI
// stack above it:
//
//   - calibrated cost constants (Params),
//   - per-node buses on which CPU copies and HCA DMA contend (Bus), all
//     funnelling through one shared memory controller (MemCtl),
//   - a per-node virtual address space for registered buffers (Memory),
//   - the watches progress loops sleep on (Watch): one per rank, notified
//     by whatever the rank polls, and a node default for queues no rank
//     owns.
//
// Calibration targets the paper's measured numbers: 5.9 µs / 870 MB/s raw
// verbs performance, <800 MB/s large-message memcpy, and the derived MPI
// figures (18.6 µs basic, 7.4 µs piggyback, 7.6 µs / 857 MB/s zero-copy).
// DESIGN.md §5 maps each constant to its published number.
//
// Layer boundaries: model sits directly on internal/des and knows nothing
// about verbs, channels or MPI. internal/ib charges its costs; everything
// above sees them only through simulated time.
//
// Invariants:
//
//   - A single flow is paced by its own rate: a granule's total dwell time
//     on a Bus is exactly TimeForBytes(granule, rate), however the bus
//     splits it internally between memory-controller occupancy and flow
//     pacing. Single-bus timing is therefore independent of how many other
//     buses the node has — the property that keeps single-rail runs
//     bit-identical as multi-rail machinery is added around them.
//   - Flows sharing one bus serialize granule-by-granule (the §4.4
//     memcpy-vs-DMA contention); flows on different buses of one node
//     aggregate up to Params.MemBandwidth and no further (the multi-rail
//     ceiling, DESIGN.md §10).
//   - A watch is per rank, not per adapter: a rank sleeping on its watch
//     cannot miss a delivery arriving on any rail or from a neighbouring
//     core, and is not woken by one landing for another rank of its node.
//     Only link events notify every watch of a node (Node.NotifyAll).
//   - Memory.Alloc pads allocations so distinct buffers never share a
//     64-byte line, and leaves guard gaps so off-by-one overruns fault —
//     the flag-polling protocols rely on both.
package model
