//go:build invariants

package transport

import (
	"fmt"

	"repro/internal/model"
)

// The -tags invariants build checks three promises the engine trusts
// instead of looking (DESIGN.md §18, §12 "Live heap"). A broken promise is a
// silent wrong schedule, hang or crossed request in the default build; here
// it panics.
//
//   - An answer held by a slot, free or charged, is what the endpoint would
//     answer now. Every pass walks its slots, even one with none to visit,
//     so every free answer a pass steps over is checked.
//   - A wake goes to the rank it is for (lost-wake contract). After every
//     notification of one watch of the node, each rank parked on another,
//     still unwoken, must owe nothing to it: no slot touched since it
//     parked, no fulfilled dial waiting, every held answer current.
//   - A request completes once per use (exactly-once at the engine): never
//     when it is already done, and neither completed nor waited on while it
//     sits on the free list, where a second completion of a recycled
//     request would finish another message's.
const invariants = true

// checkRequest runs as r completes, or with wait as a wait on it starts.
func (e *Engine) checkRequest(r *Request, wait bool) {
	what := "completed twice"
	switch {
	case r.free && wait:
		what = "waited on while on the free list"
	case r.free:
		what = "completed while on the free list"
	case !r.done || wait:
		return
	}
	panic(fmt.Sprintf("transport: rank %d: request (peer %d, tag %d, ctx %d) %s",
		e.rank, r.peer, r.tag, r.ctx, what))
}

// checkHeld re-asks the endpoint of active slot k, whose held answer the
// pass is about to use.
func (e *Engine) checkHeld(k int) {
	if err := e.stale(k); err != "" {
		panic(fmt.Sprintf("transport: rank %d: %s: a change did not touch its slot", e.rank, err))
	}
}

// stale describes how active slot k's held answer differs from its
// endpoint's answer now; "" if it does not, or if the slot holds none.
func (e *Engine) stale(k int) string {
	a := e.held[k]
	if !a.ok {
		return ""
	}
	if step, idle := e.actEp[k].IdlePoll(); !idle || step != a.step {
		return fmt.Sprintf("peer %d's held idle answer %+v is stale (now %+v, idle %v)",
			e.act[k], a.step, step, idle)
	}
	return ""
}

// parkCheck is what the lost-wake contract knows of a rank blocked on its
// watch.
type parkCheck struct {
	parked  bool
	seq     uint64 // the watch's counter the rank waits to see move
	touched bool   // a slot was touched while the rank was parked, unwoken
}

// armCheck makes every notification on the rank's node check it.
func (e *Engine) armCheck() { e.node.OnNotify(e.checkWoken) }

func (e *Engine) park(seq uint64) { e.parkCheck = parkCheck{parked: true, seq: seq} }
func (e *Engine) unpark()         { e.parked = false }

// unwoken reports whether the rank is parked and no notification of its
// watch has come since.
func (e *Engine) unwoken() bool { return e.parked && e.watch.Seq() == e.seq }

func (e *Engine) noteTouch() {
	if e.unwoken() {
		e.touched = true
	}
}

// checkWoken runs after every Notify of a watch of the rank's node, with
// the watch notified and the notify site.
func (e *Engine) checkWoken(by *model.Watch, site string) {
	if by == e.watch || !e.unwoken() {
		return
	}
	owed := ""
	switch {
	case e.touched:
		owed = "a slot was touched"
	case e.ready.Len() > 0:
		owed = fmt.Sprintf("the dial to peer %d is fulfilled", e.ready.Pending()[0].peer)
	default:
		for k := range e.act {
			if owed = e.stale(k); owed != "" {
				break
			}
		}
	}
	if owed != "" {
		who := fmt.Sprintf("rank %d", by.Owner())
		if by.Owner() < 0 {
			who = "the default watch"
		}
		panic(fmt.Sprintf("transport: node %d: %s notified %s, but parked rank %d was owed the wake: %s",
			e.node.ID, site, who, e.rank, owed))
	}
}
