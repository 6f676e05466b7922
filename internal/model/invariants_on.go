//go:build invariants

package model

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// The -tags invariants build lets the layer that parks pollers check, on
// every single-watch notification, that no poller of the node was owed it
// (transport's lost-wake contract). NotifyAll notifies everyone and runs no
// check.
type notifyChecks []func(by *Watch, site string)

// OnNotify installs fn to run after every Notify of one of the node's
// watches, with the watch notified and the notify site: the function and
// line that called Notify.
func (n *Node) OnNotify(fn func(by *Watch, site string)) { n.checks = append(n.checks, fn) }

func (c notifyChecks) after(w *Watch) {
	if len(c) == 0 {
		return
	}
	pc, file, line, _ := runtime.Caller(2) // Notify's caller
	site := fmt.Sprintf("%s (%s:%d)", runtime.FuncForPC(pc).Name(), filepath.Base(file), line)
	for _, fn := range c {
		fn(w, site)
	}
}

// poison fills the bytes a slot exposes from reused capacity (Slots.grow)
// with a pattern no protocol writes, so a reader that relied on a slot's
// unwritten bytes reading as zero sees 0xa5 instead and fails.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xa5
	}
}
