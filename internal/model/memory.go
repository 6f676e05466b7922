package model

import (
	"fmt"
	"sort"

	"repro/internal/des"
)

// Memory is a node's virtual address space. Buffers are allocated at
// simulated virtual addresses; RDMA operations name remote memory by
// (virtual address, rkey) exactly as InfiniBand does, and the simulator
// resolves the address back to backing storage with bounds checking.
//
// Every access runs on the owning node's engine — a remote requester
// validates an RDMA write's window against the responder's key table, and
// the bytes are resolved where they land (ib.sendWork.atResponder) — so
// the allocation table needs no lock, sharded or not.
type Memory struct {
	next   uint64
	allocs []allocation // sorted by base
}

// allocation is one mapped range: flat, backed in full by buf, or slotted
// (AllocSlots), backed slot by slot as far as accesses have reached.
type allocation struct {
	base  uint64
	size  int
	buf   []byte   // flat backing; nil when slotted
	slot  int      // bytes per slot; 0 when flat
	slots [][]byte // per-slot backing, grown on demand
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
	buf := make([]byte, n)
	return m.place(allocation{size: n, buf: buf}), buf
}

// AllocSlots reserves count slots of size bytes as one allocation and
// returns its base. The range is mapped, registrable and accounted like an
// Alloc of count×size bytes, but the host backs each slot only up to the
// furthest byte a Resolve has reached, rounded up to 64 bytes and never
// shrinking; the bytes past it read as zero. It suits a pool of fixed-size
// slots that mostly hold short packets, such as the SRQ eager pool.
func (m *Memory) AllocSlots(count, size int) uint64 {
	if count <= 0 || size <= 0 {
		panic("model: AllocSlots of nonpositive size")
	}
	return m.place(allocation{size: count * size, slot: size, slots: make([][]byte, count)})
}

// place maps a at the next free address range and returns its base. Bases
// only grow, so appending keeps the table sorted.
func (m *Memory) place(a allocation) uint64 {
	a.base = m.next
	m.allocs = append(m.allocs, a)
	pad := uint64(a.size)
	if r := pad % 64; r != 0 {
		pad += 64 - r
	}
	m.next = a.base + pad + 64 // guard gap: off-by-one overruns fault
	return a.base
}

// Remap moves the allocation at va to a fresh address range and returns its
// new base: what a free followed by a malloc of the same size does to a
// recycled buffer, except that the storage and the table entry are reused.
// The old range faults from here on. The buffer gets a new address, not its
// old one, because addresses are identities to the layers above: the
// pin-down cache is keyed on them, and a recycled scratch buffer that kept
// its address would turn the registration misses of the model into hits —
// a harness economy must not move simulated time. A slotted region is a
// pool that lives as long as its process and is never remapped.
func (m *Memory) Remap(va uint64) uint64 {
	i, off, err := m.find(va, 0)
	if err != nil || off != 0 || m.allocs[i].slot != 0 {
		panic(fmt.Sprintf("model: Remap of %#x, which is not a flat allocation", va))
	}
	a := m.allocs[i]
	m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
	return m.place(a)
}

// find returns the index of the allocation holding [va, va+n) and va's
// offset in it. It reports an error if the range is unmapped or spans an
// allocation boundary.
func (m *Memory) find(va uint64, n int) (int, int, error) {
	if n < 0 {
		return 0, 0, fmt.Errorf("model: negative length %d", n)
	}
	i := sort.Search(len(m.allocs), func(i int) bool {
		return m.allocs[i].base > va
	}) - 1
	if i < 0 {
		return 0, 0, fmt.Errorf("model: address %#x unmapped", va)
	}
	a := &m.allocs[i]
	off := va - a.base
	if off > uint64(a.size) || off+uint64(n) > uint64(a.size) {
		return 0, 0, fmt.Errorf("model: range [%#x,+%d) exceeds allocation [%#x,+%d)",
			va, n, a.base, a.size)
	}
	return i, int(off), nil
}

// Check reports whether [va, va+n) lies within one allocation, as Resolve
// does, but backs nothing and ignores slot boundaries: registering a whole
// slotted region is valid even though no single access may cross a slot.
func (m *Memory) Check(va uint64, n int) error {
	_, _, err := m.find(va, n)
	return err
}

// Resolve returns the backing bytes for [va, va+n). It reports an error if
// the range is unmapped, spans an allocation boundary or, in a slotted
// region, a slot boundary. In a slotted region it first backs the slot up
// to the range's end.
func (m *Memory) Resolve(va uint64, n int) ([]byte, error) {
	i, off, err := m.find(va, n)
	if err != nil {
		return nil, err
	}
	a := &m.allocs[i]
	if a.slot == 0 {
		return a.buf[off : off+n], nil
	}
	if n == 0 {
		return nil, nil
	}
	k, lo := off/a.slot, off%a.slot
	if lo+n > a.slot {
		return nil, fmt.Errorf("model: range [%#x,+%d) crosses a %d-byte slot boundary",
			va, n, a.slot)
	}
	if s := a.slots[k]; lo+n > len(s) {
		grown := make([]byte, min((lo+n+63)&^63, a.slot))
		copy(grown, s)
		a.slots[k] = grown
	}
	return a.slots[k][lo : lo+n], nil
}

// Backed reports how many host bytes back the allocation holding va: all
// of it when flat, the slots' reached prefixes when slotted.
func (m *Memory) Backed(va uint64) int {
	i, _, err := m.find(va, 0)
	if err != nil {
		panic(err)
	}
	a := &m.allocs[i]
	if a.slot == 0 {
		return a.size
	}
	n := 0
	for _, s := range a.slots {
		n += len(s)
	}
	return n
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
