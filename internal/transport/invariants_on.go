//go:build invariants

package transport

import "fmt"

// The -tags invariants build checks the two promises the progress pass
// trusts instead of looking (DESIGN.md §18): an idle answer held by a slot
// is what the endpoint would answer now, and a slot skipped as disarmed
// holds no work. A broken promise is a silent wrong schedule or hang in the
// default build; here it panics, naming the rank and the peer. Every pass
// walks its slots, even one with none to visit, so every skip is checked.
const invariants = true

// checkHeld re-asks the endpoint of active slot k, whose held answer the
// pass is about to use.
func (e *Engine) checkHeld(k int) {
	if step, idle := e.idle[k].IdlePoll(); !idle || step != e.held[k] {
		panic(fmt.Sprintf("transport: rank %d: peer %d's held idle answer %+v is stale (now %+v, idle %v): a change did not touch its slot",
			e.rank, e.act[k], e.held[k], step, idle))
	}
}

// checkDisarmed asks the endpoint of active slot k, which the pass skips as
// disarmed, whether it holds work, when it can say.
func (e *Engine) checkDisarmed(k int) {
	if w, ok := e.actEp[k].(interface{ HoldsWork() bool }); ok && w.HoldsWork() {
		panic(fmt.Sprintf("transport: rank %d: peer %d holds work but is disarmed: it returned to the engine without arming",
			e.rank, e.act[k]))
	}
}
