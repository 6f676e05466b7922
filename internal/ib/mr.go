package ib

import (
	"fmt"

	"repro/internal/des"
)

// PD is a protection domain. Queue pairs and memory regions belong to a PD;
// remote access is only granted when the target MR's PD matches the
// responder queue pair's PD.
type PD struct {
	hca *HCA
	id  int
}

// HCA returns the adapter this PD belongs to.
func (pd *PD) HCA() *HCA { return pd.hca }

// MR is a registered (pinned) memory region.
type MR struct {
	pd     *PD
	addr   uint64
	length int
	lkey   uint32
	rkey   uint32
	access Access
	valid  bool
}

// Addr returns the region's starting virtual address.
func (mr *MR) Addr() uint64 { return mr.addr }

// Len returns the region's length in bytes.
func (mr *MR) Len() int { return mr.length }

// LKey returns the local key used in SGEs.
func (mr *MR) LKey() uint32 { return mr.lkey }

// RKey returns the remote key presented by RDMA initiators.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Valid reports whether the region is still registered.
func (mr *MR) Valid() bool {
	h := mr.pd.hca
	if !h.shared {
		return mr.valid
	}
	h.keyMu.RLock()
	v := mr.valid
	h.keyMu.RUnlock()
	return v
}

// AllocPD creates a protection domain on the adapter.
func (h *HCA) AllocPD() *PD {
	h.pdSeq++
	return &PD{hca: h, id: h.pdSeq}
}

// RegisterMR pins [addr, addr+length) with the given access rights,
// charging the calling process the registration cost from the testbed
// model. The range must lie within a single allocation of the node's
// address space.
func (h *HCA) RegisterMR(p *des.Proc, pd *PD, addr uint64, length int, access Access) (*MR, error) {
	if pd.hca != h {
		return nil, fmt.Errorf("ib: PD belongs to a different HCA")
	}
	if err := h.node.Mem.Check(addr, length); err != nil {
		return nil, fmt.Errorf("ib: register: %w", err)
	}
	// The registration cost is charged before touching the tables: Sleep
	// parks the calling process, and the key lock must never be held across
	// a park (a remote shard validating an rkey would stall its window on
	// simulated time).
	p.Sleep(h.prm.RegTime(length))
	if h.shared {
		h.keyMu.Lock()
		defer h.keyMu.Unlock()
	}
	h.keySeq++
	mr := &MR{
		pd:     pd,
		addr:   addr,
		length: length,
		lkey:   h.keySeq,
		rkey:   h.keySeq | rkeyBit,
		access: access,
		valid:  true,
	}
	h.lkeys[mr.lkey] = mr
	h.rkeys[mr.rkey] = mr
	h.stats.MRsRegistered++
	return mr, nil
}

// rkeyBit distinguishes rkeys from lkeys so that passing one where the
// other is expected always faults, as on real adapters.
const rkeyBit = 0x8000_0000

// DeregisterMR unpins the region, charging deregistration cost.
func (h *HCA) DeregisterMR(p *des.Proc, mr *MR) error {
	if !mr.Valid() {
		return fmt.Errorf("ib: deregister: MR already invalid")
	}
	p.Sleep(h.prm.DeregTime(mr.length))
	if h.shared {
		h.keyMu.Lock()
		defer h.keyMu.Unlock()
	}
	mr.valid = false
	delete(h.lkeys, mr.lkey)
	delete(h.rkeys, mr.rkey)
	return nil
}

// lookupKey resolves a key through one of the adapter's tables and reports
// whether the MR is still registered, locking only in sharded mode: key
// validation is the per-verb hot path, and under a lone serial engine the
// baton-passing dispatch already orders every table access.
func (h *HCA) lookupKey(table map[uint32]*MR, key uint32) (*MR, bool) {
	if !h.shared {
		mr, ok := table[key]
		return mr, ok && mr.valid
	}
	h.keyMu.RLock()
	mr, ok := table[key]
	valid := ok && mr.valid
	h.keyMu.RUnlock()
	return mr, valid
}

// checkLocal validates an SGE against the adapter's lkey table. needWrite
// requires AccessLocalWrite (scatter targets).
func (h *HCA) checkLocal(sge SGE, pd *PD, needWrite bool) error {
	mr, valid := h.lookupKey(h.lkeys, sge.LKey)
	if !valid {
		return fmt.Errorf("ib: invalid lkey %#x", sge.LKey)
	}
	if mr.pd != pd {
		return fmt.Errorf("ib: lkey %#x PD mismatch", sge.LKey)
	}
	if needWrite && mr.access&AccessLocalWrite == 0 {
		return fmt.Errorf("ib: lkey %#x lacks local-write access", sge.LKey)
	}
	if sge.Addr < mr.addr || sge.Addr+uint64(sge.Len) > mr.addr+uint64(mr.length) {
		return fmt.Errorf("ib: SGE [%#x,+%d) outside MR [%#x,+%d)",
			sge.Addr, sge.Len, mr.addr, mr.length)
	}
	return nil
}

// checkRemote validates a remote access against this adapter's rkey table.
// It touches no memory: the requester of an RDMA write calls it from its
// own engine, and the responder resolves the window when the bytes land.
func (h *HCA) checkRemote(addr uint64, length int, rkey uint32, pd *PD, need Access) error {
	mr, valid := h.lookupKey(h.rkeys, rkey)
	if !valid {
		return fmt.Errorf("ib: invalid rkey %#x", rkey)
	}
	if mr.pd != pd {
		return fmt.Errorf("ib: rkey %#x PD mismatch", rkey)
	}
	if mr.access&need == 0 {
		return fmt.Errorf("ib: rkey %#x lacks access %#x", rkey, need)
	}
	if addr < mr.addr || addr+uint64(length) > mr.addr+uint64(mr.length) {
		return fmt.Errorf("ib: remote range [%#x,+%d) outside MR [%#x,+%d)",
			addr, length, mr.addr, mr.length)
	}
	return nil
}

// gather validates every element of a gather list and appends the bytes
// each one names to segs, returning the list and its total length. The
// segments alias node memory — nothing is copied here. From this point
// until the work request completes the buffer belongs to the adapter (the
// verbs ownership rule), which is what lets the engine move the bytes once,
// source to destination, at delivery.
func (h *HCA) gather(segs [][]byte, sgl []SGE, pd *PD) ([][]byte, int, error) {
	n := 0
	for _, sge := range sgl {
		if err := h.checkLocal(sge, pd, false); err != nil {
			return nil, 0, err
		}
		segs = append(segs, h.node.Mem.MustResolve(sge.Addr, sge.Len))
		n += sge.Len
	}
	return segs, n, nil
}

// scatter validates the part of a scatter list that an n-byte payload
// reaches and copies the source segments into it, segment list to segment
// list. Nothing is written unless the whole destination validates. Every
// SGE the payload reaches is validated whole, but only the bytes the
// payload fills are resolved, so a short packet in a large slotted receive
// slot backs no more host memory than it occupies (model.AllocSlots).
func (h *HCA) scatter(sgl []SGE, pd *PD, src [][]byte, n int) error {
	if sglLen(sgl) < n {
		return fmt.Errorf("ib: scatter list too short: %d < %d", sglLen(sgl), n)
	}
	var arr [4][]byte // keeps the common short lists off the heap
	dst := arr[:0]
	for _, sge := range sgl {
		if n <= 0 {
			break
		}
		if err := h.checkLocal(sge, pd, true); err != nil {
			return err
		}
		m := min(sge.Len, n)
		dst = append(dst, h.node.Mem.MustResolve(sge.Addr, m))
		n -= m
	}
	copySegs(dst, src)
	return nil
}

// copySegs copies the src segment list into the dst segment list without
// flattening either; dst must be at least as long in total as src.
func copySegs(dst, src [][]byte) {
	var d []byte
	for _, s := range src {
		for len(s) > 0 {
			for len(d) == 0 {
				d, dst = dst[0], dst[1:]
			}
			m := copy(d, s)
			d, s = d[m:], s[m:]
		}
	}
}
