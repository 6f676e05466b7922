package mpi

// ScratchBuffers returns every collective scratch slot the communicator
// holds, each at its full size.
func ScratchBuffers(c *Comm) []Buffer {
	var out []Buffer
	for _, s := range c.scr.slots() {
		if s.buf.Len > 0 {
			out = append(out, s.buf)
		}
	}
	return out
}
