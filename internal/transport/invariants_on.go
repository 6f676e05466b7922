//go:build invariants

package transport

import "fmt"

// The -tags invariants build checks the one promise the progress pass
// trusts instead of looking (DESIGN.md §18): an answer held by a slot, free
// or charged, is what the endpoint would answer now. A broken promise is a
// silent wrong schedule or hang in the default build; here it panics, naming
// the rank and the peer. Every pass walks its slots, even one with none to
// visit, so every free answer a pass steps over is checked.
const invariants = true

// checkHeld re-asks the endpoint of active slot k, whose held answer the
// pass is about to use.
func (e *Engine) checkHeld(k int) {
	if step, idle := e.idle[k].IdlePoll(); !idle || step != e.held[k].step {
		panic(fmt.Sprintf("transport: rank %d: peer %d's held idle answer %+v is stale (now %+v, idle %v): a change did not touch its slot",
			e.rank, e.act[k], e.held[k].step, step, idle))
	}
}
