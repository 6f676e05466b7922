package model

import "repro/internal/des"

// Watch is what one poller of a node sleeps on: a counter of the
// host-memory activity it can observe — a remote write or completion
// landing in a queue it owns, a neighbouring core storing into a ring it
// reads — the processes blocked until the counter advances, and those
// sleeping a run of idle polls (SleepChain).
//
// A rank's progress engine owns one (Node.NewWatch), and everything the rank
// polls notifies it: a real rank spins only on its own flags and completion
// queues, so a write wakes only the rank it lands for. The watch is per
// rank, not per adapter: the queues of every rail the rank uses notify it,
// so a rank sleeping on it cannot miss a delivery arriving on another rail.
// Queues no rank owns notify the node's default watch (DefaultWatch). Link
// events are the only node-wide notification (NotifyAll).
type Watch struct {
	node    *Node
	next    *Watch      // the node's next watch, in creation order
	owner   int         // the owning rank; -1 for the node's default watch
	seq     uint64      // bumped on every notification
	cond    des.Cond    // processes blocked until seq advances
	chained []*des.Proc // processes sleeping an idle poll run (SleepChain)
}

// NewWatch creates the watch of the given rank on the node.
func (n *Node) NewWatch(owner int) *Watch {
	w := &Watch{node: n, owner: owner}
	last := &n.def
	for last.next != nil {
		last = last.next
	}
	last.next = w
	return w
}

// DefaultWatch returns the watch of queues no rank owns: those built
// outside a cluster, through ib's CreateCQ, and HCA.WaitMemory's pollers.
func (n *Node) DefaultWatch() *Watch { return &n.def }

// NotifyAll notifies every watch of the node, the default one first, then
// the ranks' in creation order: a link going down or up changes what every
// poller of the node can see.
func (n *Node) NotifyAll() {
	for w := &n.def; w != nil; w = w.next {
		w.notify()
	}
}

// Owner returns the rank owning the watch, -1 for the node's default one.
func (w *Watch) Owner() int { return w.owner }

// Notify records host-memory activity the watch's poller can observe and
// wakes it. A poller sleeping through a run of idle polls (SleepChain)
// stops at the poll in progress, the first that could see the change.
func (w *Watch) Notify() {
	w.notify()
	w.node.checks.after(w)
}

func (w *Watch) notify() {
	w.seq++
	w.cond.Broadcast()
	for _, p := range w.chained {
		p.CutChain()
	}
}

// Seq returns the counter Notify advances. Progress loops snapshot it
// before a polling pass; WaitSince then returns at once if anything
// happened during the pass, closing the lost-wakeup window between checking
// one connection and sleeping.
func (w *Watch) Seq() uint64 { return w.seq }

// WaitSince blocks until a notification newer than seq, then charges the
// poll-detection latency. If one already happened after seq was read, it
// returns at once.
func (w *Watch) WaitSince(p *des.Proc, seq uint64) {
	w.Await(p, seq)
	p.Sleep(w.node.Params.PollDetect)
}

// Await is WaitSince without the poll-detection charge, for a caller that
// sleeps the charge in a chain of its own (transport.Engine's woken pass).
func (w *Watch) Await(p *des.Proc, seq uint64) {
	for w.seq == seq {
		w.cond.Wait(p)
	}
}

// Wait blocks until pred() becomes true, re-evaluating after every
// notification, then charges the poll-detection latency.
func (w *Watch) Wait(p *des.Proc, pred func() bool) {
	for !pred() {
		w.cond.Wait(p)
	}
	p.Sleep(w.node.Params.PollDetect)
}

// SleepChain sleeps a run of polls that would each pay steps[i] and find
// nothing, as one event, and returns how many were paid: the run ends early
// at the poll during which the watch was first notified. This rests on the
// invariant the blocking waits above already rely on — every change the
// poller can observe notifies its watch in the dispatch that makes it.
func (w *Watch) SleepChain(p *des.Proc, steps []des.Step) int {
	w.chained = append(w.chained, p)
	done := p.SleepChain(steps)
	last := len(w.chained) - 1
	for i, q := range w.chained {
		if q == p {
			w.chained[i] = w.chained[last]
			break
		}
	}
	w.chained[last] = nil
	w.chained = w.chained[:last]
	return done
}
