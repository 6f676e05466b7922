package rdmachan

// HostBacked reports the host bytes behind the pool's receive and send slot
// arrays: the prefixes packets have reached (model.AllocSlots).
func (sp *SRQPool) HostBacked() (recv, send int) {
	return sp.recvSlots.Backed(), sp.sendSlots.Backed()
}
