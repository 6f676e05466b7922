package model

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/des"
)

// Memory is a node's virtual address space. Buffers are allocated at
// simulated virtual addresses; RDMA operations name remote memory by
// (virtual address, rkey) exactly as InfiniBand does, and the simulator
// resolves the address back to backing storage with bounds checking.
//
// The allocation table is guarded by a reader/writer lock taken only in
// sharded execution (SetShared): allocation is always performed by the
// owning node's shard, but remote requesters resolve RDMA target addresses
// from their own shard's OS thread. Under a lone serial engine the
// baton-passing dispatch already orders every access, and Resolve is too
// hot a path to pay for atomics it does not need.
type Memory struct {
	mu     sync.RWMutex
	shared bool
	next   uint64
	allocs []allocation // sorted by base
}

// SetShared arms the allocation-table lock. Must be called before the
// simulation starts dispatching, i.e. while the cluster is still being
// constructed single-threaded.
func (m *Memory) SetShared() { m.shared = true }

type allocation struct {
	base uint64
	buf  []byte
}

// memoryBase leaves the low addresses unmapped so that address 0 (and small
// offsets from it) fault, as on real hardware.
const memoryBase = 0x10000

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{next: memoryBase}
}

// Alloc reserves n bytes and returns the virtual address and the backing
// slice. Allocations are padded to 64-byte lines so distinct buffers never
// share a line (the flag-polling protocols rely on that).
func (m *Memory) Alloc(n int) (uint64, []byte) {
	if n <= 0 {
		panic("model: Alloc of nonpositive size")
	}
	if m.shared {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	buf := make([]byte, n)
	base := m.place(buf)
	return base, buf
}

// place maps buf at the next free address range and returns its base. Bases
// only grow, so appending keeps the table sorted.
func (m *Memory) place(buf []byte) uint64 {
	base := m.next
	m.allocs = append(m.allocs, allocation{base, buf})
	pad := uint64(len(buf))
	if r := pad % 64; r != 0 {
		pad += 64 - r
	}
	m.next = base + pad + 64 // guard gap: off-by-one overruns fault
	return base
}

// Remap moves the allocation at va to a fresh address range and returns its
// new base: what a free followed by a malloc of the same size does to a
// recycled buffer, except that the storage and the table entry are reused.
// The old range faults from here on. The buffer gets a new address, not its
// old one, because addresses are identities to the layers above: the
// pin-down cache is keyed on them, and a recycled scratch buffer that kept
// its address would turn the registration misses of the model into hits —
// a harness economy must not move simulated time.
func (m *Memory) Remap(va uint64) uint64 {
	if m.shared {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	i := sort.Search(len(m.allocs), func(i int) bool {
		return m.allocs[i].base >= va
	})
	if i == len(m.allocs) || m.allocs[i].base != va {
		panic(fmt.Sprintf("model: Remap of %#x, which is not an allocation", va))
	}
	buf := m.allocs[i].buf
	m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
	return m.place(buf)
}

// Resolve returns the backing bytes for [va, va+n). It reports an error if
// the range is unmapped or spans an allocation boundary.
func (m *Memory) Resolve(va uint64, n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("model: negative length %d", n)
	}
	if m.shared {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	i := sort.Search(len(m.allocs), func(i int) bool {
		return m.allocs[i].base > va
	})
	if i == 0 {
		return nil, fmt.Errorf("model: address %#x unmapped", va)
	}
	a := m.allocs[i-1]
	off := va - a.base
	if off > uint64(len(a.buf)) || off+uint64(n) > uint64(len(a.buf)) {
		return nil, fmt.Errorf("model: range [%#x,+%d) exceeds allocation [%#x,+%d)",
			va, n, a.base, len(a.buf))
	}
	return a.buf[off : off+uint64(n)], nil
}

// MustResolve is Resolve that panics on fault; for simulator-internal paths
// where a fault indicates a protocol bug.
func (m *Memory) MustResolve(va uint64, n int) []byte {
	b, err := m.Resolve(va, n)
	if err != nil {
		panic(err)
	}
	return b
}

// Node is one machine of the simulated cluster: an identity, the shared
// cost parameters, a memory bus and an address space. The InfiniBand layer
// attaches one or more HCAs (rails) to a node; MPI processes run on it.
//
// The node also owns the host-memory event counter polled by progress
// loops: a flag flipped by any agent with access to the node's memory — a
// DMA engine of any rail, or a neighbouring core storing into a shared
// ring — is indistinguishable to a polling loop, so all of them feed this
// one counter. Keeping it per-node (not per-adapter) is what makes
// multi-rail wakeups lossless: a loop sleeping on the node cannot miss a
// delivery that arrived on another rail.
type Node struct {
	ID     int
	Params *Params
	Bus    *Bus
	Mem    *Memory

	memctl   *MemCtl
	memWatch des.Cond
	memSeq   uint64      // bumped on every remote write / completion landing here
	chained  []*des.Proc // processes sleeping an idle poll pass (SleepChain)
}

// NewNode builds a node with its own bus and address space. The primary
// bus and any rail buses created later share one memory controller.
func NewNode(id int, p *Params) *Node {
	n := &Node{
		ID:     id,
		Params: p,
		Mem:    NewMemory(),
		memctl: NewMemCtl(p),
	}
	n.Bus = NewBusOn(fmt.Sprintf("node%d.bus", id), p, n.memctl)
	return n
}

// NewRailBus creates an additional bus (a PCI segment for one more rail)
// sharing this node's memory controller: the rail paces its own flows at
// its own rate, but its granules queue with every other bus of the node
// at the MemBandwidth ceiling.
func (n *Node) NewRailBus(name string) *Bus {
	return NewBusOn(name, n.Params, n.memctl)
}

// MemCtlBusyTime returns total simulated time the node's memory
// controller has been occupied (utilization stats).
func (n *Node) MemCtlBusyTime() des.Time { return n.memctl.BusyTime() }

// NotifyMemWrite records host-memory activity — a remote write or
// completion landing on this node, from any rail or a neighbouring core —
// and wakes pollers. A poller sleeping through a run of idle polls
// (SleepChain) stops at the poll in progress, the first that could see
// the change.
func (n *Node) NotifyMemWrite() {
	n.memSeq++
	n.memWatch.Broadcast()
	for _, p := range n.chained {
		p.CutChain()
	}
}

// SleepChain sleeps a run of polls that would each pay steps[i] and find
// nothing, as one event, and returns how many were paid: the run ends early
// at the poll during which NotifyMemWrite first fired. This rests on the
// invariant the blocking waits below already rely on — every change a
// polling loop of this node can observe is announced by NotifyMemWrite in
// the dispatch that makes it.
func (n *Node) SleepChain(p *des.Proc, steps []des.Step) int {
	n.chained = append(n.chained, p)
	done := p.SleepChain(steps)
	last := len(n.chained) - 1
	for i, q := range n.chained {
		if q == p {
			n.chained[i] = n.chained[last]
			break
		}
	}
	n.chained[last] = nil
	n.chained = n.chained[:last]
	return done
}

// MemEventSeq returns a counter that advances on every remote write or
// completion landing on this node. Progress loops snapshot it before a
// polling pass; WaitMemEventSince then returns immediately if anything
// happened during the pass, closing the lost-wakeup window between
// checking one connection and sleeping.
func (n *Node) MemEventSeq() uint64 { return n.memSeq }

// WaitMemEventSince blocks until host-memory activity newer than seq,
// then charges the poll-detection latency. If activity already happened
// after seq was read, it returns at once.
func (n *Node) WaitMemEventSince(p *des.Proc, seq uint64) {
	for n.memSeq == seq {
		n.memWatch.Wait(p)
	}
	p.Sleep(n.Params.PollDetect)
}

// WaitMemory blocks until pred() becomes true, re-evaluating after every
// remote write delivered into this node, then charges the poll-detection
// latency.
func (n *Node) WaitMemory(p *des.Proc, pred func() bool) {
	for !pred() {
		n.memWatch.Wait(p)
	}
	p.Sleep(n.Params.PollDetect)
}

// WaitMemEvent blocks until the next remote write or completion lands on
// this node, then charges the poll-detection latency.
func (n *Node) WaitMemEvent(p *des.Proc) {
	n.memWatch.Wait(p)
	p.Sleep(n.Params.PollDetect)
}
