//go:build go1.23

package des

// The module's go line stays at 1.21 (see go.mod), so this file states the
// toolchain floor itself: the constraint above raises its language version
// to the release that introduced iter, and an older toolchain fails the
// build on the missing Proc.start rather than on an unknown import.

import (
	"fmt"
	"iter"
)

// start creates p's coroutine. The sequence it wraps runs body and yields
// every process p hands the baton to; its end — body returned, panicked, or
// was unwound by Shutdown — makes next report (nil, false), which returns
// the baton to the driver.
func (p *Proc) start() {
	e, body := p.eng, p.body
	p.body = nil
	p.next, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer func() {
			p.next, p.stop, p.yield = nil, nil, nil
			p.die()
			if r := recover(); r != nil && r != (shutdownUnwind{}) {
				e.panicV = fmt.Sprintf("des: process %q panicked: %v", p.name, r)
			}
		}()
		p.waiting = false
		p.gen++
		body(p)
	})
}
