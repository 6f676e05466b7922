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
	buf   []byte // flat backing; nil when slotted
	slots Slots  // slotted backing; zero when flat
}

// Slots is the owner's view of a slotted region, returned by AllocSlots
// with its base: it reaches slot k by index, without the address search
// Resolve does. It shares its backing with the allocation table, so bytes
// written through either are the bytes the other reads. A slot its owner
// is done with is released, its buffer kept for the region, or dropped,
// its buffer given back (AllocSlots).
type Slots struct {
	size int      // bytes per slot; 0 when flat
	back [][]byte // per-slot backing; a released slot's buffer is kept at length 0, a dropped one is nil
}

// Slot returns the first n bytes of slot k, backing them first: the slot's
// backing grows to n rounded up to 64 bytes (never past the slot, never
// shrinking until released) and keeps the bytes it held. A request past the
// slot panics.
func (s Slots) Slot(k, n int) []byte {
	if b := s.back[k]; n <= len(b) {
		return b[:n]
	}
	return s.grow(k, n)
}

// grow is Slot's path for a request past the backed prefix: kept apart so
// that the common case inlines. It grows into the capacity the slot already
// has; a slot with none takes the buffer of the released slot nearest below
// it (on a ring, the one retired last), and only then is a buffer made.
func (s Slots) grow(k, n int) []byte {
	if n < 0 || n > s.size {
		panic(fmt.Sprintf("model: %d bytes of a %d-byte slot", n, s.size))
	}
	b, want := s.back[k], min((n+63)&^63, s.size)
	if cap(b) == 0 {
		b = s.reclaim(k)
	}
	if want > cap(b) {
		nb := make([]byte, want)
		copy(nb, b)
		b = nb
	} else {
		poison(b[len(b):want])
		b = b[:want]
	}
	s.back[k] = b
	return b[:n]
}

// reclaim takes the buffer of the released slot nearest below k, wrapping
// round, and returns it empty; nil when no slot holds released capacity.
func (s Slots) reclaim(k int) []byte {
	for i := 1; i < len(s.back); i++ {
		j := (k - i + len(s.back)) % len(s.back)
		if b := s.back[j]; len(b) == 0 && cap(b) > 0 {
			s.back[j] = nil
			return b
		}
	}
	return nil
}

// Release marks slot k's packet consumed: the slot reads as unbacked, and
// its buffer stays with the region, counted by Backed, for the next slot
// that grows — this one or, through reclaim, another.
func (s Slots) Release(k int) {
	s.back[k] = s.back[k][:0]
}

// Drop gives slot k's buffer back to the Go heap: the slot reads as
// unbacked, Backed no longer counts it, and its next access backs it
// afresh, zeroed. The address range stays mapped.
func (s Slots) Drop(k int) {
	s.back[k] = nil
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
// returns its base and the owner's view of it. The range is mapped,
// registrable and accounted like an Alloc of count×size bytes, but the host
// backs a slot only up to the furthest byte an access — Resolve or the
// view — has reached, rounded up to 64 bytes, and only until its owner
// releases it. An owner gives a slot up in one of two ways. Released
// (Slots.Release), its buffer stays in the region, still counted by Backed,
// and backs the next slot of the region that grows: the rings and pools,
// which reach the same slots lap after lap, keep their working set. Dropped
// (Slots.Drop), its buffer goes back to the Go heap and the slot's next
// access backs it afresh: the buffers a call needs only while it runs keep
// their address, which the pin-down cache knows them by, but no bytes.
// Bytes not written since a release are stale bytes of an earlier packet of
// the region, as a ring slot on real hardware holds an earlier lap (the
// invariants build poisons them); bytes never backed, or not since a drop,
// read as zero. It suits rings and pools of fixed-size slots that mostly
// hold short packets (the chunk rings, the SRQ eager pool, the
// shared-memory cells) and, as one-slot regions, the collectives' scratch.
func (m *Memory) AllocSlots(count, size int) (uint64, Slots) {
	if count <= 0 || size <= 0 {
		panic("model: AllocSlots of nonpositive size")
	}
	s := Slots{size: size, back: make([][]byte, count)}
	return m.place(allocation{size: count * size, slots: s}), s
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
	if err != nil || off != 0 || m.allocs[i].slots.size != 0 {
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
	s := a.slots
	if s.size == 0 {
		return a.buf[off : off+n], nil
	}
	if n == 0 {
		return nil, nil
	}
	k, lo := off/s.size, off%s.size
	if lo+n > s.size {
		return nil, fmt.Errorf("model: range [%#x,+%d) crosses a %d-byte slot boundary",
			va, n, s.size)
	}
	return s.Slot(k, lo+n)[lo:], nil
}

// Backed reports how many host bytes back the allocation holding va: all
// of it when flat, the slots' buffers, held or released, when slotted.
func (m *Memory) Backed(va uint64) int {
	i, _, err := m.find(va, 0)
	if err != nil {
		panic(err)
	}
	return m.allocs[i].backed()
}

// BackedTotal reports how many host bytes back the whole address space.
func (m *Memory) BackedTotal() int {
	n := 0
	for i := range m.allocs {
		n += m.allocs[i].backed()
	}
	return n
}

func (a *allocation) backed() int {
	if a.slots.size == 0 {
		return a.size
	}
	return a.slots.Backed()
}

// Backed reports how many host bytes back the region: the capacity of
// every slot's buffer, held or released.
func (s Slots) Backed() int {
	n := 0
	for _, b := range s.back {
		n += cap(b)
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
// The node also owns the watches its pollers sleep on (watch.go): one per
// rank, created by the rank's progress engine, and a default one for
// queues no rank owns.
type Node struct {
	ID     int
	Params *Params
	Bus    *Bus
	Mem    *Memory

	memctl *MemCtl
	def    Watch // the default watch; its next link chains the ranks'
	checks notifyChecks
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
	n.def = Watch{node: n, owner: -1}
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
