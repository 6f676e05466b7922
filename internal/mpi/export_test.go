package mpi

// ScratchBuffers returns every collective scratch slot the communicator
// holds, each at its full size.
func ScratchBuffers(c *Comm) []Buffer {
	var out []Buffer
	for _, s := range []scratchBuf{c.scr.token, c.scr.in, c.scr.acc, c.scr.tmp,
		c.scr.part, c.scr.bruck, c.scr.split, c.scr.table} {
		if s.buf.Len > 0 {
			out = append(out, s.buf)
		}
	}
	return out
}
